// Package lsh implements random-hyperplane locality-sensitive hashing, the
// approximate alternative to exact multidimensional indexing that the
// paper's §7.3 suggests ("for others, locality sensitive hashing or similar
// approximations may suffice"). DeepLens uses it only in an ablation
// against the ball tree on the image-matching join
// (internal/bench/lshablation): it may miss pairs, so the engine never
// serves from it.
package lsh

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is an indexed vector with a caller-assigned identifier.
type Point struct {
	Vec []float32
	ID  uint64
}

// Index is a multi-table random-hyperplane LSH index. Vectors hashing to
// the same bucket in any table become match candidates; callers verify
// candidates with an exact distance check.
type Index struct {
	dim     int
	nTables int
	nBits   int
	planes  [][][]float32 // [table][bit][dim]
	tables  []map[uint64][]Point
}

// New creates an index for dim-dimensional vectors with nTables hash
// tables of nBits-bit signatures. More tables raise recall; more bits
// raise precision. nBits must be <= 64.
func New(dim, nTables, nBits int, seed int64) (*Index, error) {
	if dim <= 0 || nTables <= 0 || nBits <= 0 || nBits > 64 {
		return nil, fmt.Errorf("lsh: invalid parameters dim=%d tables=%d bits=%d", dim, nTables, nBits)
	}
	rng := rand.New(rand.NewSource(seed))
	ix := &Index{dim: dim, nTables: nTables, nBits: nBits}
	ix.planes = make([][][]float32, nTables)
	ix.tables = make([]map[uint64][]Point, nTables)
	for t := 0; t < nTables; t++ {
		ix.planes[t] = make([][]float32, nBits)
		for b := 0; b < nBits; b++ {
			v := make([]float32, dim)
			for d := range v {
				v[d] = float32(rng.NormFloat64())
			}
			ix.planes[t][b] = v
		}
		ix.tables[t] = make(map[uint64][]Point)
	}
	return ix, nil
}

func (ix *Index) signature(table int, v []float32) uint64 {
	var sig uint64
	for b, plane := range ix.planes[table] {
		var dot float32
		for d := range plane {
			dot += plane[d] * v[d]
		}
		if dot >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// Insert adds a point to all tables.
func (ix *Index) Insert(p Point) error {
	if len(p.Vec) != ix.dim {
		return fmt.Errorf("lsh: vector dim %d, index dim %d", len(p.Vec), ix.dim)
	}
	for t := 0; t < ix.nTables; t++ {
		sig := ix.signature(t, p.Vec)
		ix.tables[t][sig] = append(ix.tables[t][sig], p)
	}
	return nil
}

// Candidates returns the deduplicated union of bucket contents for q
// across all tables. The result may include false positives and miss true
// neighbors; callers filter with an exact metric.
func (ix *Index) Candidates(q []float32) []Point {
	seen := make(map[uint64]bool)
	var out []Point
	for t := 0; t < ix.nTables; t++ {
		sig := ix.signature(t, q)
		for _, p := range ix.tables[t][sig] {
			if !seen[p.ID] {
				seen[p.ID] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// RangeSearch reports indexed points within eps of q, verified exactly
// against the candidate set. fn returning false stops the search.
// Returns the distances evaluated, one per candidate tested.
func (ix *Index) RangeSearch(q []float32, eps float64, fn func(Point, float64) bool) int {
	evals := 0
	for _, p := range ix.Candidates(q) {
		evals++
		var s float64
		for i := range p.Vec {
			d := float64(p.Vec[i]) - float64(q[i])
			s += d * d
		}
		if s <= eps*eps {
			if !fn(p, math.Sqrt(s)) {
				return evals
			}
		}
	}
	return evals
}
