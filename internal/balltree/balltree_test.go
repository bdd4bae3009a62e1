package balltree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randPoints(rng *rand.Rand, n, dim int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		pts[i] = Point{Vec: v, ID: uint64(i)}
	}
	return pts
}

func bruteRange(pts []Point, q []float32, eps float64) []uint64 {
	var ids []uint64
	for _, p := range pts {
		if Dist(p.Vec, q) <= eps {
			ids = append(ids, p.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func treeRange(t *Tree, q []float32, eps float64) []uint64 {
	var ids []uint64
	t.RangeSearch(q, eps, func(p Point, _ float64) bool { ids = append(ids, p.ID); return true })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestEmpty(t *testing.T) {
	tr, err := Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if evals := tr.RangeSearch([]float32{0}, 1, func(Point, float64) bool {
		t.Fatal("callback on empty tree")
		return true
	}); evals != 0 {
		t.Fatalf("RangeSearch on empty tree evaluated %d distances", evals)
	}
	if nn, evals := nearestK(tr, []float32{0}, 3); nn != nil || evals != 0 {
		t.Fatalf("Nearest on empty tree = %v after %d evaluations", nn, evals)
	}
}

func TestMixedDimensionsRejected(t *testing.T) {
	pts := []Point{{Vec: []float32{1, 2}}, {Vec: []float32{1, 2, 3}}}
	if _, err := Build(pts); err == nil {
		t.Fatal("mixed dims accepted")
	}
}

func TestRangeMatchesBruteAcrossDims(t *testing.T) {
	for _, dim := range []int{2, 4, 16, 64} {
		rng := rand.New(rand.NewSource(int64(dim)))
		pts := randPoints(rng, 3000, dim)
		tr, err := Build(pts)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			q := make([]float32, dim)
			for d := range q {
				q[d] = float32(rng.NormFloat64())
			}
			eps := 0.5 + rng.Float64()*float64(dim)/4
			want := bruteRange(pts, q, eps)
			got := treeRange(tr, q, eps)
			if len(want) != len(got) {
				t.Fatalf("dim %d trial %d: range %d ids, want %d", dim, trial, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("dim %d trial %d: id mismatch at %d", dim, trial, i)
				}
			}
		}
	}
}

// hit is one neighbor nearestK keeps.
type hit struct {
	d  float64
	id uint64
}

func hitLess(a, b hit) bool { return a.d < b.d || a.d == b.d && a.id < b.id }

// nearestK keeps the k nearest points Nearest visits in ascending
// (distance, id) order, bounding the walk by the kth kept distance, and
// returns them with Nearest's evaluation count.
func nearestK(tr *Tree, q []float32, k int) (ns []hit, evals int) {
	bound := func() float64 {
		if len(ns) < k {
			return math.Inf(1)
		}
		return ns[k-1].d
	}
	evals = tr.Nearest(q, bound, func(p Point, d float64) {
		h := hit{d, p.ID}
		i := sort.Search(len(ns), func(i int) bool { return hitLess(h, ns[i]) })
		if i < k {
			ns = slices.Insert(ns, i, h)
			ns = ns[:min(len(ns), k)]
		}
	})
	return ns, evals
}

// sortedHits is the reference: every point's distance to q, sorted by
// (distance, id).
func sortedHits(pts []Point, q []float32) []hit {
	all := make([]hit, len(pts))
	for i, p := range pts {
		all[i] = hit{Dist(p.Vec, q), p.ID}
	}
	sort.Slice(all, func(i, j int) bool { return hitLess(all[i], all[j]) })
	return all
}

// TestKNNMatchesBrute: a k-nearest walk over Nearest returns the first k
// of the fully sorted distances, ids included, and evaluates at most one
// distance per point and per ball.
func TestKNNMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 2000, 8)
	tr, _ := Build(pts)
	for trial := 0; trial < 50; trial++ {
		q := make([]float32, 8)
		for d := range q {
			q[d] = float32(rng.NormFloat64())
		}
		k := 1 + rng.Intn(10)
		got, evals := nearestK(tr, q, k)
		if want := sortedHits(pts, q)[:k]; !slices.Equal(got, want) {
			t.Fatalf("trial %d: k=%d nearest %v, want %v", trial, k, got, want)
		}
		if limit := tr.Len() + tr.Nodes(); evals > limit {
			t.Fatalf("trial %d: %d distance evaluations, want <= %d", trial, evals, limit)
		}
	}
}

func TestKNNMoreThanN(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(1)), 5, 3)
	tr, _ := Build(pts)
	got, _ := nearestK(tr, []float32{0, 0, 0}, 50)
	if len(got) != 5 {
		t.Fatalf("k=50 over 5 points returned %d", len(got))
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{Vec: []float32{1, 2, 3}, ID: uint64(i)}
	}
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	got := treeRange(tr, []float32{1, 2, 3}, 0)
	if len(got) != 500 {
		t.Fatalf("identical points: found %d of 500", len(got))
	}
	// A forced leaf of identical points: every one ties, and the walk
	// must offer them all so the least ids win.
	nn, _ := nearestK(tr, []float32{1, 2, 3}, 7)
	if want := sortedHits(pts, []float32{1, 2, 3})[:7]; !slices.Equal(nn, want) {
		t.Fatalf("identical points: nearest 7 = %v, want %v", nn, want)
	}
}

// TestRangeSearchCountsEvaluations: RangeSearch reports one evaluation
// per ball centre and point it tests — every one when eps covers the
// tree, only the root's centre when the query is far from every point,
// and between the matches and Len() + Nodes() otherwise.
func TestRangeSearchCountsEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 2000, 8)
	tr, _ := Build(pts)
	all := func(Point, float64) bool { return true }
	if evals := tr.RangeSearch(make([]float32, 8), 1e6, all); evals != tr.Len()+tr.Nodes() {
		t.Fatalf("covering range evaluated %d distances, want %d", evals, tr.Len()+tr.Nodes())
	}
	far := make([]float32, 8)
	far[0] = 1e6
	if evals := tr.RangeSearch(far, 1, all); evals != 1 {
		t.Fatalf("far query evaluated %d distances, want 1", evals)
	}
	for trial := 0; trial < 20; trial++ {
		q := pts[rng.Intn(len(pts))].Vec
		eps := 0.5 + rng.Float64()*2
		matches := len(bruteRange(pts, q, eps))
		evals := tr.RangeSearch(q, eps, all)
		if evals < matches || evals > tr.Len()+tr.Nodes() {
			t.Fatalf("trial %d: %d evaluations for %d matches, tree of %d points and %d balls",
				trial, evals, matches, tr.Len(), tr.Nodes())
		}
	}
}

// TestBuildEvalsCounts: a leaf costs one evaluation per point (its
// radius and left seed); a split ball four (those, the right seed and
// the partition's two).
func TestBuildEvalsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if tr, _ := Build(randPoints(rng, leafSize, 8)); tr.BuildEvals() != leafSize {
		t.Fatalf("leaf build evaluated %d distances, want %d", tr.BuildEvals(), leafSize)
	}
	// 17 distinct points split once into two leaves.
	if tr, _ := Build(randPoints(rng, leafSize+1, 8)); tr.Nodes() != 3 || tr.BuildEvals() != 5*(leafSize+1) {
		t.Fatalf("one split: %d balls, %d evaluations, want 3 and %d", tr.Nodes(), tr.BuildEvals(), 5*(leafSize+1))
	}
}

func TestEarlyStop(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(2)), 1000, 4)
	tr, _ := Build(pts)
	n := 0
	tr.RangeSearch(pts[0].Vec, 100, func(Point, float64) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

// Property: the reported distance matches Dist and is within eps.
func TestQuickReportedDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 800, 6)
	tr, _ := Build(pts)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := make([]float32, 6)
		for d := range q {
			q[d] = float32(r.NormFloat64())
		}
		eps := r.Float64() * 3
		ok := true
		tr.RangeSearch(q, eps, func(p Point, d float64) bool {
			if d > eps || math.Abs(d-Dist(p.Vec, q)) > 1e-9 {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every indexed point is its own nearest neighbor at eps=0.
func TestQuickSelfMatch(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(4)), 500, 10)
	tr, _ := Build(pts)
	for _, p := range pts {
		found := false
		tr.RangeSearch(p.Vec, 1e-12, func(got Point, _ float64) bool {
			if got.ID == p.ID {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("point %d not found by self-query", p.ID)
		}
	}
}
