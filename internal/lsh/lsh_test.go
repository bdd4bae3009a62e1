package lsh

import (
	"math"
	"math/rand"
	"testing"
)

func TestInvalidParams(t *testing.T) {
	cases := [][3]int{{0, 4, 8}, {8, 0, 8}, {8, 4, 0}, {8, 4, 65}}
	for _, c := range cases {
		if _, err := New(c[0], c[1], c[2], 1); err == nil {
			t.Fatalf("New(%v) accepted", c)
		}
	}
}

func TestDimMismatch(t *testing.T) {
	ix, _ := New(4, 2, 8, 1)
	if err := ix.Insert(Point{Vec: []float32{1, 2}}); err == nil {
		t.Fatal("wrong-dim insert accepted")
	}
}

func TestExactDuplicatesAlwaysFound(t *testing.T) {
	// A query identical to an indexed vector hashes identically in every
	// table, so duplicates are always candidates.
	ix, _ := New(16, 4, 12, 7)
	rng := rand.New(rand.NewSource(7))
	vecs := make([][]float32, 300)
	for i := range vecs {
		v := make([]float32, 16)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		vecs[i] = v
		if err := ix.Insert(Point{Vec: v, ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range vecs {
		found := false
		ix.RangeSearch(v, 1e-6, func(p Point, _ float64) bool {
			if p.ID == uint64(i) {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("exact duplicate %d not found", i)
		}
	}
}

func TestNoFalseAcceptsAfterVerification(t *testing.T) {
	ix, _ := New(8, 6, 10, 3)
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 500)
	for i := range pts {
		v := make([]float32, 8)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		pts[i] = Point{Vec: v, ID: uint64(i)}
		ix.Insert(pts[i])
	}
	q := make([]float32, 8)
	eps := 1.0
	// One evaluation per candidate: every candidate is verified exactly.
	evals := ix.RangeSearch(q, eps, func(p Point, d float64) bool {
		if d > eps {
			t.Fatalf("verified result at distance %g > eps %g", d, eps)
		}
		// Recompute exactly.
		var s float64
		for i := range p.Vec {
			dd := float64(p.Vec[i]) - float64(q[i])
			s += dd * dd
		}
		if math.Abs(math.Sqrt(s)-d) > 1e-9 {
			t.Fatal("reported distance wrong")
		}
		return true
	})
	if n := len(ix.Candidates(q)); evals != n {
		t.Fatalf("RangeSearch evaluated %d distances over %d candidates", evals, n)
	}
}

func TestRecallOnClusteredData(t *testing.T) {
	// Points near a query should mostly be retrieved: plant a tight cluster
	// and check recall is well above chance.
	const dim = 32
	ix, _ := New(dim, 8, 10, 11)
	rng := rand.New(rand.NewSource(11))
	center := make([]float32, dim)
	for d := range center {
		center[d] = float32(rng.NormFloat64())
	}
	const nCluster = 100
	for i := 0; i < nCluster; i++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = center[d] + float32(rng.NormFloat64()*0.01)
		}
		ix.Insert(Point{Vec: v, ID: uint64(i)})
	}
	// Distractors far away.
	for i := 0; i < 2000; i++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64() * 5)
		}
		ix.Insert(Point{Vec: v, ID: uint64(nCluster + i)})
	}
	found := 0
	ix.RangeSearch(center, 0.5, func(p Point, _ float64) bool {
		if p.ID < nCluster {
			found++
		}
		return true
	})
	if found < nCluster*7/10 {
		t.Fatalf("cluster recall %d/%d below 70%%", found, nCluster)
	}
}

func TestCandidatesDeduplicated(t *testing.T) {
	ix, _ := New(4, 8, 2, 5) // few bits: heavy collisions across tables
	v := []float32{1, 2, 3, 4}
	ix.Insert(Point{Vec: v, ID: 7})
	cands := ix.Candidates(v)
	n := 0
	for _, c := range cands {
		if c.ID == 7 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("point 7 appeared %d times in candidates", n)
	}
}

func TestDeterministicAcrossSeeds(t *testing.T) {
	a, _ := New(8, 4, 8, 42)
	b, _ := New(8, 4, 8, 42)
	v := make([]float32, 8)
	for d := range v {
		v[d] = float32(d) - 3.5
	}
	for tbl := 0; tbl < 4; tbl++ {
		if a.signature(tbl, v) != b.signature(tbl, v) {
			t.Fatal("same seed produced different hyperplanes")
		}
	}
}
