package bench

// Shared fixture for the tiered-column experiment: the colscan
// collection rebuilt under a constrained segment-cache budget, swept
// across row counts, measuring the selective filter cold (all segments
// evicted), warm (whatever the budget keeps resident), and zone-pruned
// (no segment ever faults), against the unbudgeted in-memory store.
// Used by both BenchmarkTieredColumns (the CI-uploaded snapshot) and
// the `deeplens-bench tiered-scan` subcommand so the two surfaces
// cannot drift apart.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/exec"
)

// TieredScanRowsSweep is the ingested-row sweep: from the colscan
// default up to a column footprint ~17x the budget.
var TieredScanRowsSweep = []int{12000, 50000, 200000}

// TieredScanBudget is the constrained resident-segment budget (bytes):
// far below the column footprint at every sweep point, so scans
// continuously fault and evict.
const TieredScanBudget = 256 << 10

// TieredScanPrunedRank is an equality constant above every rank zone
// map's maximum (ranks are i % 1009), so the predicate prunes every
// segment without loading one.
const TieredScanPrunedRank = 2000

// NewTieredCollection ingests rows of the colscan fixture under dir
// with a budgeted segment cache installed, and projects the scanned
// columns so every sealed segment has spilled before measurement.
func NewTieredCollection(dir string, rows int, budget int64) (*core.DB, *core.Collection, *core.SegmentCache, error) {
	db, err := core.Open(filepath.Join(dir, "tiered.db"), exec.New(exec.CPU))
	if err != nil {
		return nil, nil, nil, err
	}
	sc := core.NewSegmentCache(budget)
	db.SetSegmentCache(sc)
	col, err := db.CreateCollection(ColScanCol, ColScanSchema())
	if err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	for i := 0; i < rows; i++ {
		if err := col.Append(ColScanPatch(i)); err != nil {
			db.Close()
			return nil, nil, nil, err
		}
	}
	cs, err := col.Columns()
	if err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	for _, f := range []string{"label", "score", "rank"} {
		cs.Column(f)
	}
	return db, col, sc, nil
}

// TieredScanPoint is one sweep size's measured workloads and the cache
// activity they generated.
type TieredScanPoint struct {
	Rows int `json:"rows"`
	// ColdFilterNS: selective label filter with every segment evicted
	// first — pays segment reload on top of the scan.
	ColdFilterNS float64 `json:"cold_filter_ns"`
	// WarmFilterNS: the same filter immediately re-run — only whatever
	// the budget kept resident is free; the rest faults again.
	WarmFilterNS float64 `json:"warm_filter_ns"`
	// PrunedFilterNS: an equality no zone map can satisfy — answered
	// from resident summaries, zero segment loads at any budget.
	PrunedFilterNS float64 `json:"pruned_filter_ns"`
	// InMemFilterNS: the same selective filter on an unbudgeted
	// in-memory store over the same snapshot (the tier's overhead
	// reference).
	InMemFilterNS float64 `json:"inmem_filter_ns"`

	SegmentSpills    int64 `json:"segment_spills"`
	SegmentLoads     int64 `json:"segment_loads"`
	SegmentEvictions int64 `json:"segment_evictions"`
	ResidentBytes    int64 `json:"resident_bytes"`
	// Cache activity of the cold and of the warm repetitions alone (iters
	// filters each; the cold ones' forced evictions are not counted). A
	// warm pass that evicts, or loads more than a cold one, is thrashing.
	ColdLoads     int64 `json:"cold_segment_loads"`
	WarmLoads     int64 `json:"warm_segment_loads"`
	WarmEvictions int64 `json:"warm_segment_evictions"`
}

// WriteTieredScanJSON writes the baseline snapshot (the artifact CI
// uploads alongside the columnar-scan curve).
func WriteTieredScanJSON(path string, budget int64, points []TieredScanPoint) error {
	out := struct {
		Description string            `json:"description"`
		GoMaxProcs  int               `json:"gomaxprocs"`
		BudgetBytes int64             `json:"budget_bytes"`
		BlockSize   int               `json:"block_size"`
		Selectivity float64           `json:"selectivity"`
		Sweep       []TieredScanPoint `json:"sweep"`
	}{
		Description: "tiered column store under a constrained memory budget: selective filter cold/warm/zone-pruned vs the unbudgeted in-memory store, swept over ingested rows",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		BudgetBytes: budget,
		BlockSize:   core.ColumnBlockSize,
		Selectivity: 1.0 / ColScanLabels,
		Sweep:       points,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// MeasureTieredScan runs the full sweep and returns one point per row
// count. iters is the min-wall repetition count per workload.
func MeasureTieredScan(dir string, sizes []int, budget int64, iters int) ([]TieredScanPoint, error) {
	points := make([]TieredScanPoint, 0, len(sizes))
	for _, rows := range sizes {
		sub, err := os.MkdirTemp(dir, "tiered")
		if err != nil {
			return nil, err
		}
		db, col, sc, err := NewTieredCollection(sub, rows, budget)
		if err != nil {
			return nil, err
		}
		pt := TieredScanPoint{Rows: rows}
		cs, err := col.Columns()
		if err != nil {
			db.Close()
			return nil, err
		}
		filter := func() error {
			if _, ok := cs.FilterEq("label", ColScanTarget()); !ok {
				return fmt.Errorf("bench: label lost its column at %d rows", rows)
			}
			return nil
		}
		built := sc.Stats()
		if pt.ColdFilterNS, err = MinWallNS(iters, func() error {
			sc.EvictAll()
			return filter()
		}); err != nil {
			db.Close()
			return nil, err
		}
		cold := sc.Stats()
		if pt.WarmFilterNS, err = MinWallNS(iters, filter); err != nil {
			db.Close()
			return nil, err
		}
		warm := sc.Stats()
		pt.ColdLoads = cold.Loads - built.Loads
		pt.WarmLoads = warm.Loads - cold.Loads
		pt.WarmEvictions = warm.Evictions - cold.Evictions
		if pt.PrunedFilterNS, err = MinWallNS(iters, func() error {
			if sel, ok := cs.FilterEq("rank", core.IntV(TieredScanPrunedRank)); !ok || len(sel) != 0 {
				return fmt.Errorf("bench: pruned predicate matched %d rows", len(sel))
			}
			return nil
		}); err != nil {
			db.Close()
			return nil, err
		}
		mem := core.NewColumnStore(cs.Patches(), cs.Version())
		if pt.InMemFilterNS, err = MinWallNS(iters, func() error {
			if _, ok := mem.FilterEq("label", ColScanTarget()); !ok {
				return fmt.Errorf("bench: in-memory label column missing at %d rows", rows)
			}
			return nil
		}); err != nil {
			db.Close()
			return nil, err
		}
		st := sc.Stats()
		pt.SegmentSpills = st.Spills
		pt.SegmentLoads = st.Loads
		pt.SegmentEvictions = st.Evictions
		pt.ResidentBytes = st.ResidentBytes
		if err := db.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(sub); err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}
