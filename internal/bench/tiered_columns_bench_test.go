package bench

import (
	"testing"

	"repro/internal/core"
)

// This file benchmarks the tiered column store under a constrained
// memory budget: the selective colscan filter measured cold (all
// segments evicted), warm, and zone-pruned, against the unbudgeted
// in-memory store, swept from 12k to 200k rows. The sweep and JSON
// encoding are shared with the `deeplens-bench tiered-scan` subcommand
// via internal/bench's tieredscan fixture; the curve is recorded to
// BENCH_tiered_columns.json — a perf baseline CI regenerates and
// uploads alongside the columnar-scan snapshot.

// BenchmarkTieredColumns runs the whole sweep per harness iteration
// (fixture builds dominate, so sub-benchmark slicing would re-ingest
// 262k rows per point; one flat run keeps CI's -benchtime 1x cheap) and
// asserts the structural shape: every sweep point spilled, the budget
// held, and the warm pass at the largest size did not thrash.
func BenchmarkTieredColumns(b *testing.B) {
	const iters = 5
	var points []TieredScanPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = MeasureTieredScan(b.TempDir(), TieredScanRowsSweep, TieredScanBudget, iters)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range points {
		if pt.SegmentSpills == 0 {
			b.Fatalf("%d rows: no segments spilled under the %d-byte budget", pt.Rows, int64(TieredScanBudget))
		}
		if pt.ResidentBytes > TieredScanBudget {
			b.Fatalf("%d rows: resident %d bytes over the %d budget", pt.Rows, pt.ResidentBytes, int64(TieredScanBudget))
		}
	}
	last := points[len(points)-1]
	// The thrash-cliff guard, on counts so it holds under -race and on
	// noisy runners: at 200k rows the column is ~3x the budget, and a warm
	// pass must settle on a resident subset — evict nothing, and load
	// fewer segments than a pass that starts with everything cold.
	if last.WarmEvictions != 0 || last.WarmLoads > last.ColdLoads {
		b.Fatalf("%d rows: warm budgeted passes evicted %d segments and loaded %d (cold passes loaded %d)",
			last.Rows, last.WarmEvictions, last.WarmLoads, last.ColdLoads)
	}
	b.ReportMetric(last.ColdFilterNS, "cold-ns")
	b.ReportMetric(last.WarmFilterNS, "warm-ns")
	b.ReportMetric(last.PrunedFilterNS, "pruned-ns")
	b.ReportMetric(last.InMemFilterNS, "inmem-ns")
	if err := WriteTieredScanJSON("BENCH_tiered_columns.json", TieredScanBudget, points); err != nil {
		b.Logf("baseline not written: %v", err)
	}
}

// TestTieredScanWorkloadsAgree guards the benchmark's correctness side
// at a cheap size: the budgeted store's filter matches the in-memory
// store's count, and the pruned predicate performs zero segment loads.
func TestTieredScanWorkloadsAgree(t *testing.T) {
	const rows = 3200 // divisible by ColScanLabels: exact per-label count
	db, col, sc, err := NewTieredCollection(t.TempDir(), rows, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	sc.EvictAll()
	sel, ok := cs.FilterEq("label", ColScanTarget())
	if !ok {
		t.Fatal("label lost its column")
	}
	mem := core.NewColumnStore(cs.Patches(), cs.Version())
	msel, _ := mem.FilterEq("label", ColScanTarget())
	if len(sel) != len(msel) || len(sel) != rows/ColScanLabels {
		t.Fatalf("budgeted %d vs in-memory %d matches, want %d", len(sel), len(msel), rows/ColScanLabels)
	}
	sc.EvictAll()
	psel, st, ok := cs.FilterEqStats("rank", core.IntV(TieredScanPrunedRank))
	if !ok || len(psel) != 0 || st.SegLoads != 0 {
		t.Fatalf("pruned predicate: %d rows, %d segment loads", len(psel), st.SegLoads)
	}
}
