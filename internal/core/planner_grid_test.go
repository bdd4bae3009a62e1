package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/balltree"
	"repro/internal/exec"
)

// The planner is tested by counting: over a grid of uniform and
// clustered data, the path it picks must evaluate at most
// gridSlack × the distances of the cheapest path it could have picked.
const gridSlack = 1.25

// gridVecs draws n vectors of dimensionality dim: uniform in the unit
// cube when centres is nil, else around a random one of centres.
func gridVecs(rng *rand.Rand, n, dim int, centres [][]float32) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		if centres == nil {
			for d := range v {
				v[d] = rng.Float32()
			}
		} else {
			c := centres[rng.Intn(len(centres))]
			for d := range v {
				v[d] = c[d] + float32(rng.NormFloat64()*0.05)
			}
		}
		out[i] = v
	}
	return out
}

// gridData is one data kind: its name and, when clustered, 50 centres.
type gridData struct {
	name    string
	centres func(rng *rand.Rand, dim int) [][]float32
}

var gridKinds = []gridData{
	{"uniform", func(*rand.Rand, int) [][]float32 { return nil }},
	{"clustered", func(rng *rand.Rand, dim int) [][]float32 { return gridVecs(rng, 50, dim, nil) }},
}

// appendVecs appends one row per vector to col, returning the snapshot
// after each row count in at.
func appendVecs(t *testing.T, col *Collection, vecs [][]float32, at ...int) []Snapshot {
	t.Helper()
	var snaps []Snapshot
	for i, v := range vecs {
		if err := col.Append(&Patch{Meta: Metadata{"emb": VecV(v), "frameno": IntV(int64(i))}}); err != nil {
			t.Fatal(err)
		}
		if slices.Contains(at, i+1) {
			s, err := col.Current()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, s)
		}
	}
	return snaps
}

// TestPlanKNNGridCounts: for exact kNN requests without use_index, over
// uniform and 50-cluster points × n × dim × k, the planner's path
// evaluates at most gridSlack × the cheaper of the scan and the exact
// tree, both counted by running the request's queries through them. On
// uniform 32-d and 64-d points, where the tree evaluates more than n at
// every k, it scans.
func TestPlanKNNGridCounts(t *testing.T) {
	sizes := []int{1024, 4096, 16384}
	const queries = 16
	for _, kind := range gridKinds {
		for _, dim := range []int{4, 32, 64} {
			rng := rand.New(rand.NewSource(int64(dim)))
			centres := kind.centres(rng, dim)
			db := openDB(t)
			col, err := db.CreateCollection("vecs", vecSchema(dim))
			if err != nil {
				t.Fatal(err)
			}
			snaps := appendVecs(t, col, gridVecs(rng, sizes[len(sizes)-1], dim, centres), sizes...)
			qs := gridVecs(rng, queries, dim, centres)
			for i, snap := range snaps {
				vi, err := snap.VectorIndex("emb", VecExact)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 10, 64} {
					plan := snap.PlanKNN("emb", dim, k, true, 0, false)
					before := db.RefreshStats()
					for _, q := range qs {
						vi.KNN(q, k)
						snap.ScanKNN("emb", q, k)
					}
					after := db.RefreshStats()
					tree, scan := after.KNNIndexEvals-before.KNNIndexEvals, after.KNNScanEvals-before.KNNScanEvals
					chosen := scan
					if plan.Method == KNNIndex {
						chosen = tree
					}
					cell := fmt.Sprintf("%s n=%d dim=%d k=%d", kind.name, sizes[i], dim, k)
					t.Logf("%s: %v, tree %.3f·n, chosen/cheapest %.2f", cell, plan.Method,
						float64(tree)/float64(scan), float64(chosen)/float64(min(tree, scan)))
					if float64(chosen) > gridSlack*float64(min(tree, scan)) {
						t.Errorf("%s: %v evaluated %d distances, the scan %d and the tree %d",
							cell, plan.Method, chosen, scan, tree)
					}
					if centres == nil && dim >= 32 && plan.Method != KNNScan {
						t.Errorf("%s: %v, want knn-scan", cell, plan.Method)
					}
				}
			}
		}
	}
}

// joinEvals counts the distances each join method evaluates for left
// against right; the join index is counted only when vi is set.
func joinEvals(t *testing.T, left, right []*Patch, eps float64, vi *VectorIndex) map[SimMethod]int {
	t.Helper()
	opts := SimilarityJoinOpts{LeftField: "emb", RightField: "emb", Eps: eps}
	out := map[SimMethod]int{
		SimNested:  len(left) * len(right),
		SimBatched: len(left) * len(right),
	}
	// SimilarityJoinOnTheFly's work: a tree over the smaller side, probed
	// by every row of the other.
	build, probe := right, left
	if len(left) < len(right) {
		build, probe = left, right
	}
	pts := make([]balltree.Point, len(build))
	for i, p := range build {
		v, _ := vecOf(p, "emb")
		pts[i] = balltree.Point{Vec: v, ID: uint64(p.ID)}
	}
	bt, err := balltree.Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	fly := bt.BuildEvals()
	for _, p := range probe {
		v, _ := vecOf(p, "emb")
		fly += bt.RangeSearch(v, eps, func(balltree.Point, float64) bool { return true })
	}
	out[SimOnTheFly] = fly
	if vi != nil {
		_, evals, err := SimilarityJoinVecIndexed(left, vi, opts)
		if err != nil {
			t.Fatal(err)
		}
		out[SimVecIndexed] = evals
	}
	return out
}

// gridEps returns the distance within which ~1% of right lies from the
// left rows: the 1st percentile of their distances.
func gridEps(left, right []*Patch) float64 {
	var ds []float64
	for _, l := range left[:min(len(left), 64)] {
		lv, _ := vecOf(l, "emb")
		for _, r := range right {
			rv, _ := vecOf(r, "emb")
			ds = append(ds, VecDist(lv, rv))
		}
	}
	slices.Sort(ds)
	return ds[len(ds)/100]
}

// TestPlanJoinGridCounts: over uniform and 50-cluster 32-d points, with
// left and right sides of 256, 1,024 and 2,048 rows and an eps matching
// ~1% of the right side, the method the service's planner picks (for a
// CPU device) evaluates at most gridSlack × the distances of the
// cheapest method it may run. The right side is a fragment of a
// 2,048-row shard, whose tree statistic prices the tree probes; the
// whole shard may also take the maintained index.
func TestPlanJoinGridCounts(t *testing.T) {
	const dim, shard = 32, 2048
	sides := []int{256, 1024, 2048}
	for _, kind := range gridKinds {
		rng := rand.New(rand.NewSource(11))
		centres := kind.centres(rng, dim)
		db := openDB(t)
		rcol, err := db.CreateCollection("right", vecSchema(dim))
		if err != nil {
			t.Fatal(err)
		}
		lcol, err := db.CreateCollection("left", vecSchema(dim))
		if err != nil {
			t.Fatal(err)
		}
		rsnap := appendVecs(t, rcol, gridVecs(rng, shard, dim, centres), shard)[0]
		lsnap := appendVecs(t, lcol, gridVecs(rng, shard, dim, centres), shard)[0]
		for _, nR := range sides {
			var vi *VectorIndex
			if nR == shard {
				if vi, err = rsnap.VectorIndex("emb", VecExact); err != nil {
					t.Fatal(err)
				}
			}
			right := rsnap.Patches()[:nR]
			eps := gridEps(lsnap.Patches(), right)
			for _, nL := range sides {
				left := lsnap.Patches()[:nL]
				plan := rsnap.PlanSimilarityJoin("emb", nL, right, vi != nil, exec.CPU)
				evals := joinEvals(t, left, right, eps, vi)
				cheapest := evals[SimNested]
				for _, e := range evals {
					cheapest = min(cheapest, e)
				}
				ratio := float64(evals[plan.Method]) / float64(cheapest)
				cell := fmt.Sprintf("%s %d×%d", kind.name, nL, nR)
				t.Logf("%s: %v, evaluations %v, chosen/cheapest %.2f", cell, plan.Method, evals, ratio)
				if ratio > gridSlack {
					t.Errorf("%s: %v evaluated %d distances, the cheapest %d (%v)",
						cell, plan.Method, evals[plan.Method], cheapest, evals)
				}
			}
		}
	}
}

// TestTreeStatSameOnReplicasAndReopen: the tree statistic depends only
// on the shard's rows, so both replicas of a shard compute the same
// bits, and so does a reopened store; below treeSampleRows rows the tree
// is priced as a scan.
func TestTreeStatSameOnReplicasAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sharded")
	open := func() (*Sharded, *ShardedCollection) {
		s, err := OpenShardedReplicas(dir, 1, 2, exec.New(exec.CPU))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := s.Collection("vecs")
		if err != nil {
			if sc, err = s.CreateCollection("vecs", vecSchema(16)); err != nil {
				t.Fatal(err)
			}
		}
		return s, sc
	}
	stats := func(sc *ShardedCollection) [2][2]treeStat {
		var out [2][2]treeStat
		for r := range 2 {
			snap, err := sc.Replica(0, r).Current()
			if err != nil {
				t.Fatal(err)
			}
			out[r] = [2]treeStat{snap.treeStat("emb", 1), snap.treeStat("emb", 10)}
		}
		return out
	}
	s, sc := open()
	rng := rand.New(rand.NewSource(3))
	for i, v := range gridVecs(rng, treeSampleRows+100, 16, gridVecs(rng, 7, 16, nil)) {
		if i == treeSampleRows-1 {
			if got := stats(sc); got[0][1] != scanStat || got[1][1] != scanStat {
				t.Fatalf("below the sample size: %+v, want the scan price", got)
			}
		}
		if err := sc.Append(&Patch{Meta: Metadata{"emb": VecV(v), "frameno": IntV(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	want := stats(sc)
	if want[0] != want[1] || want[0][0] == scanStat || want[0][0] == want[0][1] {
		t.Fatalf("replica statistics %+v, want two equal sampled pairs differing by k", want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, sc = open()
	defer s.Close()
	if got := stats(sc); got != want {
		t.Fatalf("after reopen %+v, want %+v", got, want)
	}
}
