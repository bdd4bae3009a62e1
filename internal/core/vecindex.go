package core

// VectorIndex is the kNN physical path's core structure: a
// per-collection, versioned nearest-neighbor index over one declared
// vector field, maintained exactly like the columnar projection —
// cached per field on the collection, reused while the version stands,
// extended by the rows appended past the ones it covers, rebuilt on
// first touch or when an extension cannot keep its shape. A stale index
// can never serve a newer snapshot: the cached entry is keyed by the
// version it was built over and only the exact-version match is
// returned.
//
// The index is a ball tree over the rows it was built on plus a linear
// tail of rows appended since, and returns precisely the brute-force
// answer (k nearest by Euclidean distance, ties broken by ascending
// patch id — the byte-identity contract the serving layer's golden
// tests pin). Approximate matching (LSH) is not a serving path; it
// survives only as the paper's ablation in internal/bench/lshablation.

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/balltree"
)

// exactTailMax bounds the un-treed append tail of an exact index: an
// extension whose accumulated tail would exceed max(exactTailMax,
// treeSize/4) re-trees instead, so the tail stays a bounded share of
// the points a probe offers.
const exactTailMax = 256

// VecDist is the vector-index distance metric (Euclidean). Every
// consumer of the index — brute-force reference paths included — must
// compute distances through this one function so the index stays
// byte-identical to the scan it replaces.
func VecDist(a, b []float32) float64 { return balltree.Dist(a, b) }

// vecOf extracts the indexable vector for a field ("" = the Data payload).
func vecOf(p *Patch, field string) ([]float32, bool) {
	if field == "" {
		if p.Data != nil && p.Data.F32s != nil {
			return p.Data.F32s, true
		}
		return nil, false
	}
	v, ok := p.Get(field)
	if !ok || (v.Kind != KindVec && v.Kind != KindRect) {
		return nil, false
	}
	return v.Vec(), true
}

// VecNeighbor is one nearest-neighbor result: a patch id with its exact
// distance to the query.
type VecNeighbor struct {
	ID   PatchID
	Dist float64
}

// VectorIndex indexes one vector field of one collection snapshot.
type VectorIndex struct {
	field string
	at    Snapshot // the rows covered: an extension indexes the ones past them

	// A ball tree, which owns the only copy of its points, over the
	// field's points in the first treeRows rows of at, plus a linear
	// tail: the tailN points in the rows after them, read from the row
	// table in row order. Rows are immutable, so nothing an index reads
	// is written.
	ball     *balltree.Tree
	treeRows int
	tailN    int

	// evals, when set, counts probes' distance evaluations.
	evals *atomic.Int64
}

// NewVectorIndex builds an index over field across the snapshot's rows.
// Rows without the field, and rows whose vector dimensionality
// disagrees with the first one seen, are skipped: the ball tree indexes
// one dimensionality.
func NewVectorIndex(at Snapshot, field string) (*VectorIndex, error) {
	vi := &VectorIndex{field: field, at: at}
	if err := vi.retree(at.Len()); err != nil {
		return nil, err
	}
	return vi, nil
}

// retree builds vi's tree over the first n points of its rows, all of
// them, in row order, leaving no tail.
func (vi *VectorIndex) retree(n int) error {
	t, err := balltree.Build(fieldPoints(vi.at, vi.field, n))
	if err != nil {
		return err
	}
	vi.ball, vi.treeRows, vi.tailN = t, vi.at.Len(), 0
	return nil
}

// fieldPoints returns the points of the first limit rows of at carrying
// field at the first one's dimensionality: the rows a vector index
// holds.
func fieldPoints(at Snapshot, field string, limit int) []balltree.Point {
	pts := make([]balltree.Point, 0, min(limit, at.Len()))
	if at.Len() == 0 {
		return pts
	}
	at.tab.vectorRuns(field, 0, at.Len(), func(ids []PatchID, slots []slot, stride int) bool {
		for j, id := range ids {
			if vec := vecAt(slots, j, stride); len(pts) == 0 || len(vec) == len(pts[0].Vec) {
				if pts = append(pts, balltree.Point{Vec: vec, ID: uint64(id)}); len(pts) == limit {
					return false
				}
			}
		}
		return true
	})
	return pts
}

// Extend returns a new index covering at — which must hold the
// receiver's rows followed by appended ones. Readers holding the
// receiver stay consistent: nothing they read is written. It counts
// the appended rows' vectors into the linear tail, allocating only the
// new index, and re-trees only when the tail outgrows its bound.
// Returns an error when the extension cannot preserve the index shape
// (first vectors appearing, or a dimensionality change); the caller
// falls back to a full rebuild.
func (vi *VectorIndex) Extend(at Snapshot) (*VectorIndex, error) {
	nx := *vi
	nx.at = at
	dim, dimOK := vi.Dim(), true
	at.tab.vectorRuns(vi.field, vi.at.Len(), at.Len(), func(ids []PatchID, slots []slot, stride int) bool {
		for j := range ids {
			if dimOK = dim != 0 && len(vecAt(slots, j, stride)) == dim; !dimOK {
				return false
			}
		}
		nx.tailN += len(ids)
		return true
	})
	if !dimOK {
		return nil, fmt.Errorf("core: vector index on %q cannot extend across dimensionality change", vi.field)
	}
	if treeN := nx.ball.Len(); nx.tailN > exactTailMax && nx.tailN*4 > treeN {
		if err := nx.retree(treeN + nx.tailN); err != nil {
			return nil, err
		}
	}
	return &nx, nil
}

// Field returns the indexed vector field.
func (vi *VectorIndex) Field() string { return vi.field }

// Len returns the number of indexed vectors.
func (vi *VectorIndex) Len() int { return vi.ball.Len() + vi.tailN }

// Dim returns the indexed dimensionality (0 when no vectors were seen).
func (vi *VectorIndex) Dim() int { return vi.ball.Dim() }

// tail calls fn with the tail points, in row order, in runs (see
// RowTable.vectorRuns).
func (vi *VectorIndex) tail(fn func(ids []PatchID, slots []slot, stride int) bool) {
	if vi.tailN == 0 {
		return
	}
	vi.at.tab.vectorRuns(vi.field, vi.treeRows, vi.at.Len(), fn)
}

// KNN returns the k nearest indexed vectors to q in ascending
// (distance, id) order: precisely the brute-force answer under that
// ordering.
func (vi *VectorIndex) KNN(q []float32, k int) []VecNeighbor {
	if k <= 0 {
		return nil
	}
	// One bounded pass. The tree skips a ball only when it cannot hold a
	// point tying the keeper's worst, so the kept set is the canonical
	// top-k whatever order the points arrive in.
	keep := newNeighborKeep(k, vi.Len())
	vi.tail(func(ids []PatchID, slots []slot, stride int) bool {
		for j, id := range ids {
			keep.offer(VecNeighbor{ID: id, Dist: VecDist(vecAt(slots, j, stride), q)})
		}
		return true
	})
	evals := vi.tailN + vi.ball.Nearest(q, keep.bound, func(p balltree.Point, d float64) {
		keep.offer(VecNeighbor{ID: PatchID(p.ID), Dist: d})
	})
	if vi.evals != nil {
		vi.evals.Add(int64(evals))
	}
	SortNeighbors(keep.h)
	return keep.h
}

// RangeSearch calls fn for every indexed vector within eps of q
// (inclusive), every true match. fn returning false stops the search.
// Visit order is unspecified. Returns the distances evaluated (balls
// and tail rows, each tested once).
func (vi *VectorIndex) RangeSearch(q []float32, eps float64, fn func(id PatchID, dist float64) bool) int {
	stopped := false
	evals := vi.ball.RangeSearch(q, eps, func(p balltree.Point, d float64) bool {
		stopped = !fn(PatchID(p.ID), d)
		return !stopped
	})
	if stopped {
		return evals
	}
	// The tail applies the tree's membership test, so a row at the eps
	// boundary matches the same way before and after a re-tree.
	vi.tail(func(ids []PatchID, slots []slot, stride int) bool {
		for j, id := range ids {
			evals++
			if d, ok := balltree.DistWithin(vecAt(slots, j, stride), q, eps); ok && !fn(id, d) {
				return false
			}
		}
		return true
	})
	return evals
}

// compareNeighbors is the one neighbor order: ascending (distance, id).
func compareNeighbors(a, b VecNeighbor) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// SortNeighbors orders neighbors canonically (see compareNeighbors).
func SortNeighbors(ns []VecNeighbor) { slices.SortFunc(ns, compareNeighbors) }

// neighborKeep keeps the k nearest of n candidates offered, under
// compareNeighbors: a max-heap whose root is the worst one kept.
type neighborKeep struct{ topHeap[VecNeighbor] }

func newNeighborKeep(k, n int) *neighborKeep {
	k = min(k, n)
	return &neighborKeep{topHeap[VecNeighbor]{
		k: k, h: make([]VecNeighbor, 0, k),
		before: func(a, b VecNeighbor) bool { return compareNeighbors(a, b) < 0 },
	}}
}

// bound is the worst kept distance, or +Inf while fewer than k are kept.
func (t *neighborKeep) bound() float64 {
	if len(t.h) < t.k {
		return math.Inf(1)
	}
	return t.h[0].Dist
}

// BruteKNN is the reference scan the index must match byte for byte:
// the k nearest vectors under field across ps, ascending (distance,
// id), distances through VecDist. Rows without the field (or with a
// dimensionality mismatch against the query) are skipped.
func BruteKNN(ps []*Patch, field string, q []float32, k int) []VecNeighbor {
	if k <= 0 {
		return nil
	}
	keep := newNeighborKeep(k, len(ps))
	for _, p := range ps {
		if vec, ok := vecOf(p, field); ok && len(vec) == len(q) {
			keep.offer(VecNeighbor{ID: p.ID, Dist: VecDist(vec, q)})
		}
	}
	SortNeighbors(keep.h)
	return keep.h
}

// ScanKNN is BruteKNN over the snapshot's rows, read from its row
// table, counted into the database's RefreshStats.
func (s Snapshot) ScanKNN(field string, q []float32, k int) []VecNeighbor {
	if k <= 0 {
		return nil
	}
	keep := newNeighborKeep(k, s.Len())
	evals := 0
	if s.Len() > 0 {
		s.tab.vectorRuns(field, 0, s.Len(), func(ids []PatchID, slots []slot, stride int) bool {
			for j, id := range ids {
				if vec := vecAt(slots, j, stride); len(vec) == len(q) {
					keep.offer(VecNeighbor{ID: id, Dist: VecDist(vec, q)})
					evals++
				}
			}
			return true
		})
	}
	SortNeighbors(keep.h)
	s.col.db.refresh.knnScanEvals.Add(int64(evals))
	return keep.h
}

// VectorIndex returns a vector index over field, current exactly as of
// the snapshot — the one the caller executes over, so index contents
// and query visibility can never skew. The index is cached per field on
// the collection and maintained like the column store (see
// refreshCached): reused while the version matches, extended by the
// rows the snapshot holds past the cached index's, built privately for
// a reader behind it.
func (s Snapshot) VectorIndex(field string) (*VectorIndex, error) {
	c := s.col
	vi, _, err := refreshCached(&c.vecMu,
		func() *VectorIndex { return c.vecIdx[field] },
		func(vi *VectorIndex) {
			if c.vecIdx == nil {
				c.vecIdx = make(map[string]*VectorIndex)
			}
			c.vecIdx[field] = vi
		},
		s,
		func(prefix *VectorIndex) (*VectorIndex, Refresh, error) {
			// An extension that cannot keep the index shape (first vectors
			// appearing, a dimensionality change) falls back to a rebuild.
			if prefix != nil {
				if vi, err := prefix.Extend(s); err == nil {
					c.db.refresh.vecExtends.Add(1)
					vi.evals = &c.db.refresh.knnIndexEvals
					return vi, RefreshExtend, nil
				}
			}
			vi, err := NewVectorIndex(s, field)
			if err == nil {
				c.db.refresh.vecRebuilds.Add(1)
				vi.evals = &c.db.refresh.knnIndexEvals
			}
			return vi, RefreshRebuild, err
		})
	return vi, err
}

// VecIndexMode names a vector index's access method in the benchmark
// harness's VectorIndexAt calls; VecExact is its only value.
type VecIndexMode int

// VecExact is the ball-tree index, whose answers equal the brute scan's.
const VecExact VecIndexMode = 1

// VectorIndexAt is Snapshot.VectorIndex over the first len(ps) rows of
// the collection at version ver, for the benchmark harness: ps is the
// rows Collection.Snapshot returned with ver. The mode is ignored.
func (c *Collection) VectorIndexAt(ps []*Patch, ver uint64, field string, _ VecIndexMode) (*VectorIndex, error) {
	cur, err := c.Current()
	if err != nil {
		return nil, err
	}
	if len(ps) > cur.Len() {
		return nil, fmt.Errorf("core: %d rows past the %d of collection %q", len(ps), cur.Len(), c.name)
	}
	return Snapshot{c, cur.tab, len(ps), ver}.VectorIndex(field)
}

func (vi *VectorIndex) covers() Snapshot {
	if vi == nil {
		return Snapshot{}
	}
	return vi.at
}

// treeStat describes an exact ball tree over one vector field of a
// shard, measured on the shard's own rows: probe is the distances one
// exact probe evaluates, as a fraction of the points; build the
// distances the tree's construction evaluates per point. It prices the
// exact kNN path and the tree joins.
type treeStat struct{ probe, build float64 }

// scanStat prices the tree as a scan, with no build counted.
var scanStat = treeStat{probe: 1}

// A treeStat is measured on the first treeSampleRows rows carrying the
// field: treeSampleProbes fixed-stride rows of the sample probe a tree
// over the others. They are held out because a probe at one of the
// tree's own points meets it at distance zero first and prunes harder
// than a query does. Rows are immutable and every snapshot extends the
// one before it, so the statistic is the same on every replica of the
// shard and after every reopen, and is computed once.
const (
	treeSampleRows   = 1024
	treeSampleProbes = 64
)

// treeStatKey names a cached statistic: a field, and k rounded up to a
// power of two so the cache stays bounded.
type treeStatKey struct {
	field string
	k     int
}

// treeStat returns the tree statistic of field at k, cached on the
// collection; it is scanStat until the shard holds treeSampleRows rows
// carrying the field. The sample's probes run through VectorIndex.KNN.
func (s Snapshot) treeStat(field string, k int) treeStat {
	if s.Len() < treeSampleRows {
		return scanStat
	}
	key := treeStatKey{field, 1 << bits.Len(uint(max(k, 1)-1))}
	if st, ok := s.col.treeStats.Load(key); ok {
		return st.(treeStat)
	}
	pts := fieldPoints(s, field, treeSampleRows)
	if len(pts) < treeSampleRows {
		return scanStat
	}
	// The probes move out; the others close up in place, in order, and
	// the tree keeps them.
	var probes []balltree.Point
	tree := pts[:0]
	for i, p := range pts {
		if i%(treeSampleRows/treeSampleProbes) == 0 {
			probes = append(probes, p)
		} else {
			tree = append(tree, p)
		}
	}
	t, _ := balltree.Build(tree) // one dimensionality: cannot fail
	var evals atomic.Int64
	vi := &VectorIndex{ball: t, evals: &evals}
	for _, p := range probes {
		vi.KNN(p.Vec, key.k)
	}
	n := float64(len(tree))
	st := treeStat{probe: float64(evals.Load()) / treeSampleProbes / n, build: float64(t.BuildEvals()) / n}
	s.col.treeStats.Store(key, st)
	return st
}
