package core

import (
	"testing"
	"testing/quick"

	"repro/internal/exec"
)

// TestSimCostMonotone: every method's price is non-negative and
// non-decreasing in both relation sizes and the dimensionality, on every
// device, whatever the tree statistic.
func TestSimCostMonotone(t *testing.T) {
	f := func(nL, nR, dim uint16, probe, build uint8) bool {
		l, r, d := int(nL%5000)+1, int(nR%5000)+1, int(dim%256)+1
		st := treeStat{probe: float64(probe) / 128, build: float64(build)}
		for dev := exec.CPU; dev <= exec.GPU; dev++ {
			for m := SimNested; m <= SimVecIndexed; m++ {
				base := simCost(m, l, r, d, st, dev)
				if base < 0 || simCost(m, l*2, r, d, st, dev) < base ||
					simCost(m, l, r*2, d, st, dev) < base || simCost(m, l, r, d*2, st, dev) < base {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizerSimJoinChoices: a plan is priced for the device that runs
// it. On the CPU the batched kernel counts the scalar loop's evaluations
// on the same device, so the tie goes to the nested loop; an
// accelerator's cheaper evaluations win a large join. A tree the data
// prunes well beats both, and
// the maintained index beats the on-the-fly tree, whose build it does
// not pay; a shard priced as a scan never takes a tree.
func TestOptimizerSimJoinChoices(t *testing.T) {
	pruned := treeStat{probe: 0.05, build: 30}
	for _, tc := range []struct {
		nL, nR, dim int
		st          treeStat
		hasIndex    bool
		dev         exec.Kind
		want        SimMethod
	}{
		{2000, 2000, 64, scanStat, false, exec.CPU, SimNested},
		{2000, 2000, 64, scanStat, true, exec.CPU, SimNested},
		{2000, 2000, 64, scanStat, false, exec.AVX, SimBatched},
		{20000, 20000, 64, scanStat, false, exec.GPU, SimBatched},
		{2000, 2000, 64, pruned, false, exec.CPU, SimOnTheFly},
		{2000, 2000, 64, pruned, true, exec.CPU, SimVecIndexed},
	} {
		p := planSimilarityJoin(tc.nL, tc.nR, tc.dim, tc.st, tc.hasIndex, tc.dev)
		if p.Method != tc.want || p.EstCost <= 0 {
			t.Errorf("%d×%d dim %d %+v index=%v on %v: %v at %g, want %v",
				tc.nL, tc.nR, tc.dim, tc.st, tc.hasIndex, tc.dev, p.Method, p.EstCost, tc.want)
		}
	}
}

// TestPlanSmallJoinAvoidsOffload: a tiny join on a GPU device stays on the
// host whether or not an index is kept, since the launch latency outweighs
// the few evaluations it would save.
func TestPlanSmallJoinAvoidsOffload(t *testing.T) {
	for _, hasIndex := range []bool{false, true} {
		p := planSimilarityJoin(8, 8, 16, scanStat, hasIndex, exec.GPU)
		if p.Method != SimNested || p.EstCost <= 0 {
			t.Fatalf("8×8 join on the GPU, index=%v: %v at %g, want %v",
				hasIndex, p.Method, p.EstCost, SimNested)
		}
	}
}

func TestFilterMethodStrings(t *testing.T) {
	for m, want := range map[FilterMethod]string{
		FilterScan:       "scan-filter",
		FilterIndex:      "sorted-segments",
		FilterColumnScan: "column-scan",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

// TestPlanKNNStatic: the kNN planner's rules — a pruning tree beats the
// scan, a tree priced as a scan loses the tie to it, forceIndex pins the
// index — and the statistic-free CostModel prices the tree as a scan
// whatever exactness or recall floor it is handed.
func TestPlanKNNStatic(t *testing.T) {
	const n, dim, k = 200000, 64, 10
	if p := planKNN(n, dim, k, false, 0.5); p.Method != KNNIndex {
		t.Fatalf("plan over a pruning tree = %v, want knn-index", p.Method)
	}
	if p := planKNN(n, dim, k, false, 1); p.Method != KNNScan {
		t.Fatalf("plan over a tree priced as a scan = %v, want knn-scan", p.Method)
	}
	if p := planKNN(n, dim, k, true, 1.2); p.Method != KNNIndex {
		t.Fatalf("forceIndex plan = %v, want knn-index", p.Method)
	}
	var cm CostModel
	for _, exact := range []bool{false, true} {
		for _, floor := range []float64{0, 0.5, 0.99} {
			if p, q := cm.PlanKNN(n, dim, k, exact, floor, false), planKNN(n, dim, k, false, 1); p != q {
				t.Fatalf("CostModel plan (exact %v, floor %g) %+v, want the scan-priced %+v", exact, floor, p, q)
			}
		}
	}
}
