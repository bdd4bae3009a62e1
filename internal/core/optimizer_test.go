package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/exec"
)

// TestSimCostMonotone checks the cost model's sanity properties: cost is
// non-decreasing in relation sizes and dimensionality for every method.
func TestSimCostMonotone(t *testing.T) {
	cm := DefaultCostModel()
	methods := []SimMethod{SimNested, SimBatched, SimOnTheFly, SimVecIndexed}
	f := func(nL, nR, dim uint16) bool {
		l, r, d := int(nL%5000)+1, int(nR%5000)+1, int(dim%256)+1
		for _, m := range methods {
			base := cm.simCost(m, exec.CPU, l, r, d)
			if base < 0 {
				return false
			}
			if cm.simCost(m, exec.CPU, l*2, r, d) < base {
				return false
			}
			if cm.simCost(m, exec.CPU, l, r*2, d) < base {
				return false
			}
			if cm.simCost(m, exec.CPU, l, r, d*2) < base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSimCostNonLinearity: doubling the ball-tree build side beyond the
// inflation knee should more than double probe-side cost growth (Figure 7's
// non-linearity is encoded in the model).
func TestSimCostNonLinearity(t *testing.T) {
	cm := DefaultCostModel()
	small := cm.simCost(SimVecIndexed, exec.CPU, 1000, 2000, 64)
	big := cm.simCost(SimVecIndexed, exec.CPU, 1000, 64000, 64)
	if big <= small {
		t.Fatalf("indexed cost did not grow with build side: %g vs %g", small, big)
	}
	// Pure log growth would give factor log(64000)/log(2000) ~ 1.45; the
	// non-linear inflation should push it past 2.
	if big/small < 2 {
		t.Fatalf("non-linearity too weak: factor %.2f", big/small)
	}
}

// TestPlanPrefersIndexAtScale: for large clustered joins with an index
// available, the planner must not pick the scalar nested loop.
func TestPlanPrefersIndexAtScale(t *testing.T) {
	cm := DefaultCostModel()
	for _, n := range []int{10000, 50000, 200000} {
		p := cm.PlanSimilarityJoin(n, n, 128, true)
		if p.Method == SimNested {
			t.Fatalf("n=%d: picked nested loop (%s)", n, p.Explain)
		}
	}
}

// TestPlanSmallJoinAvoidsOffload: tiny joins must stay on CPU regardless
// of index availability (launch overhead dominates).
func TestPlanSmallJoinAvoidsOffload(t *testing.T) {
	cm := DefaultCostModel()
	p := cm.PlanSimilarityJoin(8, 8, 16, false)
	if p.Device == exec.GPU {
		t.Fatalf("tiny join offloaded: %+v", p)
	}
	if p.EstCost <= 0 {
		t.Fatalf("estimate %f", p.EstCost)
	}
}

func TestFilterMethodStrings(t *testing.T) {
	for m, want := range map[FilterMethod]string{
		FilterScan:       "scan-filter",
		FilterHashIndex:  "hash-index",
		FilterBTreeIndex: "btree-index",
		FilterColumnScan: "column-scan",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

func TestExplainListsAllCandidates(t *testing.T) {
	cm := DefaultCostModel()
	p := cm.PlanSimilarityJoin(100, 100, 64, true)
	for _, want := range []string{"nested-loop", "batched-all-pairs", "on-the-fly-balltree", "join-index"} {
		if !contains(p.Explain, want) {
			t.Fatalf("explain missing %q: %s", want, p.Explain)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPlanKNNStatic: the kNN planner prices from the static formulas
// alone — a cold exact query over a large relation takes the exact
// index, forceIndex pins the index, an exact request never takes the
// approx mode, and EstCost is the winner's static formula.
func TestPlanKNNStatic(t *testing.T) {
	cm := DefaultCostModel()
	const n, dim, k = 200000, 64, 10
	p := cm.PlanKNN(n, dim, k, true, 0, false)
	if p.Method != KNNIndex || p.Mode != VecExact {
		t.Fatalf("exact plan = %v/%v, want index/exact", p.Method, p.Mode)
	}
	inflate := math.Pow(float64(n)/1000, cm.ProbeAlpha)
	dimInflate := 1 + cm.DimPenalty*float64(dim-8)
	want := cm.CDist*dim*32*math.Log2(n+2)*inflate*dimInflate*(1+math.Log2(k+1)) + k*cm.CFetch
	if math.Abs(p.EstCost-want) > 1e-15 {
		t.Fatalf("EstCost = %g, want the static formula %g", p.EstCost, want)
	}
	// A tiny relation: the scan is cheaper, unless forceIndex pins the index.
	if p := cm.PlanKNN(4, dim, k, true, 0, false); p.Method != KNNScan {
		t.Fatalf("tiny exact plan = %v, want knn-scan", p.Method)
	}
	if p := cm.PlanKNN(4, dim, k, true, 0, true); p.Method != KNNIndex || p.Mode != VecExact {
		t.Fatalf("forceIndex plan = %v/%v, want index/exact", p.Method, p.Mode)
	}
	// Approx is the cheapest path here, so the exact plan above shows an
	// exact request never takes it; nor does one above its recall.
	if p := cm.PlanKNN(n, dim, k, false, 0, false); p.Method != KNNIndex || p.Mode != VecApprox {
		t.Fatalf("approximate plan = %v/%v, want index/approx", p.Method, p.Mode)
	}
	if p := cm.PlanKNN(n, dim, k, false, 0.99, false); p.Mode == VecApprox {
		t.Fatal("approx mode chosen above its recall")
	}
}
