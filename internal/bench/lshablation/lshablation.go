// Package lshablation is the paper's §7.3 ablation of approximate
// matching: the q4 matching step run with an exact on-the-fly ball tree
// and with random-hyperplane LSH (internal/lsh), reporting speed and
// pair recall. LSH is only this ablation — the engine serves every kNN
// and join exactly — so it lives apart from internal/bench, which the
// server imports for its ingest environment.
package lshablation

import (
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lsh"
)

// The LSH shape: few hash bits keep buckets populous (recall over
// precision), multiple tables patch the residual misses. Probes verify
// candidates exactly, so low precision costs only distance
// computations, never wrong pairs.
const (
	lshTables = 8
	lshBits   = 12
	lshSeed   = 42
)

// Row is one matching method's result on the q4 matching step.
type Row struct {
	Method   string
	Pairs    int
	Recall   float64 // of the exact pair set
	Duration time.Duration
}

// Run runs the q4 matching step with an on-the-fly exact ball tree and
// with an LSH index over the traffic detections' emb vectors, probed
// by range search from every pedestrian. Neither timing includes an
// index build other than the on-the-fly tree's.
func Run(e *bench.Env) ([]Row, error) {
	col, err := e.DB.Collection(bench.ColTrafficDets)
	if err != nil {
		return nil, err
	}
	peds, err := e.DB.ExecuteFilter(col, "label", core.StrV("pedestrian"), core.FilterScan)
	if err != nil {
		return nil, err
	}
	opts := core.SimilarityJoinOpts{LeftField: "emb", RightField: "emb",
		Eps: bench.EpsSameIdentity, DedupUnordered: true}
	start := time.Now()
	exact, err := core.SimilarityJoinOnTheFly(peds, peds, opts)
	if err != nil {
		return nil, err
	}
	exactDur := time.Since(start)
	exactSet := map[[2]core.PatchID]bool{}
	for _, p := range exact {
		exactSet[[2]core.PatchID{p[0].ID, p[1].ID}] = true
	}

	snap, err := col.Current()
	if err != nil {
		return nil, err
	}
	ix, err := index(snap.Patches(), "emb")
	if err != nil {
		return nil, err
	}
	start = time.Now()
	var approx [][2]core.PatchID
	for _, l := range peds {
		lv, err := core.VecField(l, "emb")
		if err != nil {
			return nil, err
		}
		ix.RangeSearch(lv, opts.Eps, func(p lsh.Point, _ float64) bool {
			if r := core.PatchID(p.ID); l.ID < r {
				approx = append(approx, [2]core.PatchID{l.ID, r})
			}
			return true
		})
	}
	lshDur := time.Since(start)
	hit := 0
	for _, p := range approx {
		if exactSet[p] {
			hit++
		}
	}
	recall := 1.0
	if len(exactSet) > 0 {
		recall = float64(hit) / float64(len(exactSet))
	}
	return []Row{
		{Method: "balltree (exact)", Pairs: len(exact), Recall: 1, Duration: exactDur},
		{Method: "lsh (approx)", Pairs: len(approx), Recall: recall, Duration: lshDur},
	}, nil
}

// index builds the LSH index over field across rows: the rows carrying
// the field at the first one's dimensionality, in order.
func index(rows []*core.Patch, field string) (*lsh.Index, error) {
	var pts []lsh.Point
	for _, p := range rows {
		if v, err := core.VecField(p, field); err == nil && (pts == nil || len(v) == len(pts[0].Vec)) {
			pts = append(pts, lsh.Point{Vec: v, ID: uint64(p.ID)})
		}
	}
	dim := 1 // an empty index
	if len(pts) > 0 {
		dim = len(pts[0].Vec)
	}
	ix, err := lsh.New(dim, lshTables, lshBits, lshSeed)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if err := ix.Insert(p); err != nil {
			return nil, err
		}
	}
	return ix, nil
}
