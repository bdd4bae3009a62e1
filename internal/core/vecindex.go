package core

// VectorIndex is the ANN physical path's core structure: a
// per-collection, versioned nearest-neighbor index over one declared
// vector field, maintained exactly like the columnar projection —
// cached per (field, mode) on the collection, reused while the version
// stands, extended by the rows appended past the ones it covers, rebuilt
// on first touch or when an extension cannot keep its shape. A stale index
// can never serve a newer snapshot: the cached entry is keyed by the
// version it was built over and only the exact-version match is
// returned.
//
// Two modes share the interface. Exact mode is balltree-backed and
// returns precisely the brute-force answer (k nearest by Euclidean
// distance, ties broken by ascending patch id — the byte-identity
// contract the serving layer's golden tests pin). Approximate mode is
// LSH-backed: probes verify candidates with exact distances, so
// reported distances are always true, but a neighbor sharing no hash
// bucket with the query is missed — recall, not precision, is the
// approximation.

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/balltree"
	"repro/internal/lsh"
)

// VecIndexMode selects the vector-index access method.
type VecIndexMode int

// Vector index modes.
const (
	VecExact  VecIndexMode = iota + 1 // balltree: results identical to brute force
	VecApprox                         // LSH: recall-bounded approximation, exact distances
)

func (m VecIndexMode) String() string {
	switch m {
	case VecExact:
		return "exact"
	case VecApprox:
		return "approx"
	default:
		return fmt.Sprintf("vecmode(%d)", int(m))
	}
}

// LSH shape for approximate vector indexes: few hash bits keep buckets
// populous (recall over precision), multiple tables patch the residual
// misses. Probes verify candidates exactly, so low precision costs only
// distance computations, never wrong answers.
const (
	vecLSHTables = 8
	vecLSHBits   = 12
	vecLSHSeed   = 42
)

// exactTailMax bounds the un-treed append tail of an exact index: an
// extension whose accumulated tail would exceed max(exactTailMax,
// treeSize/4) re-trees instead, so the tail stays a bounded share of
// the points a probe offers.
const exactTailMax = 256

// VecDist is the vector-index distance metric (Euclidean). Every
// consumer of the index — brute-force reference paths included — must
// compute distances through this one function so exact mode stays
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
	mode  VecIndexMode
	dim   int
	at    Snapshot // the rows covered: an extension indexes the ones past them

	// Exact mode: a balltree over pts[:treeN] plus a linear tail
	// pts[treeN:] of appended points not yet re-treed. An extension
	// shares pts' prefix and only ever writes past len(pts), so readers
	// of an older index never see their slice mutate (see appendPts).
	pts   []balltree.Point
	treeN int
	ball  *balltree.Tree

	// extended is claimed by the first Extend of this index, which may
	// append into the spare capacity of pts; any later one copies.
	extended atomic.Bool

	// Approximate mode.
	lshI *lsh.Index

	// evals, when set, counts exact probes' distance evaluations.
	evals *atomic.Int64
}

// NewVectorIndex builds an index over field across the snapshot's rows.
// Rows without the field, and rows whose vector dimensionality
// disagrees with the first one seen, are skipped: both the ball tree
// and the LSH tables index one dimensionality.
func NewVectorIndex(at Snapshot, field string, mode VecIndexMode) (*VectorIndex, error) {
	vi := &VectorIndex{field: field, mode: mode, at: at, pts: fieldPoints(at.rows, field, at.Len())}
	if len(vi.pts) > 0 {
		vi.dim = len(vi.pts[0].Vec)
	}
	switch mode {
	case VecExact:
		t, err := balltree.Build(vi.pts)
		if err != nil {
			return nil, err
		}
		vi.ball = t
		vi.treeN = len(vi.pts)
	case VecApprox:
		dim := vi.dim
		if dim == 0 {
			dim = 1 // empty index; Extend rebuilds when vectors appear
		}
		ix, err := lsh.New(dim, vecLSHTables, vecLSHBits, vecLSHSeed)
		if err != nil {
			return nil, err
		}
		for _, p := range vi.pts {
			if err := ix.Insert(lsh.Point(p)); err != nil {
				return nil, err
			}
		}
		vi.lshI = ix
	default:
		return nil, fmt.Errorf("core: unknown vector index mode %v", mode)
	}
	return vi, nil
}

// fieldPoints returns the points of the first limit rows carrying field
// at the first one's dimensionality: the rows a vector index holds.
func fieldPoints(rows []*Patch, field string, limit int) []balltree.Point {
	var pts []balltree.Point
	for _, p := range rows {
		if vec, ok := vecOf(p, field); ok && (pts == nil || len(vec) == len(pts[0].Vec)) {
			if pts = append(pts, balltree.Point{Vec: vec, ID: uint64(p.ID)}); len(pts) == limit {
				break
			}
		}
	}
	return pts
}

// Extend returns a new index covering at — which must hold the
// receiver's rows followed by appended ones. Readers holding the
// receiver stay consistent: nothing they read is written. Exact mode
// appends to the linear tail and re-trees only when the tail
// outgrows its bound; approximate mode shares the hyperplanes and
// copies only the bucket maps. Returns an error when the extension
// cannot preserve the index shape (first vectors appearing, or a
// dimensionality change); the caller falls back to a full rebuild.
func (vi *VectorIndex) Extend(at Snapshot) (*VectorIndex, error) {
	var newPts []balltree.Point
	for _, p := range at.rows[vi.at.Len():] {
		if vec, ok := vecOf(p, vi.field); ok {
			if vi.dim == 0 || len(vec) != vi.dim {
				return nil, fmt.Errorf("core: vector index on %q cannot extend across dimensionality change", vi.field)
			}
			newPts = append(newPts, balltree.Point{Vec: vec, ID: uint64(p.ID)})
		}
	}
	nx := &VectorIndex{field: vi.field, mode: vi.mode, dim: vi.dim, at: at}
	switch vi.mode {
	case VecExact:
		nx.pts = vi.appendPts(newPts)
		nx.ball, nx.treeN = vi.ball, vi.treeN
		if tail := len(nx.pts) - nx.treeN; tail > exactTailMax && tail*4 > nx.treeN {
			// Build partitions a copy of its input, never the prefix older
			// indexes share.
			t, err := balltree.Build(nx.pts)
			if err != nil {
				return nil, err
			}
			nx.ball, nx.treeN = t, len(nx.pts)
		}
	case VecApprox:
		ext, err := vi.lshI.Extend(toLSHPoints(newPts))
		if err != nil {
			return nil, err
		}
		nx.pts = vi.appendPts(newPts)
		nx.lshI = ext
	default:
		return nil, fmt.Errorf("core: unknown vector index mode %v", vi.mode)
	}
	return nx, nil
}

// appendPts returns vi's points followed by add. The first extension of
// vi appends in place: it writes only past len(vi.pts), where no reader
// of vi or of an older index looks, so an append costs O(added) rather
// than a copy of the history. A raced sibling extension of the same
// receiver would write the same slots, so every later one copies.
func (vi *VectorIndex) appendPts(add []balltree.Point) []balltree.Point {
	if vi.extended.CompareAndSwap(false, true) {
		return append(vi.pts, add...)
	}
	return append(vi.pts[:len(vi.pts):len(vi.pts)], add...)
}

func toLSHPoints(pts []balltree.Point) []lsh.Point {
	out := make([]lsh.Point, len(pts))
	for i, p := range pts {
		out[i] = lsh.Point(p)
	}
	return out
}

// Field returns the indexed vector field.
func (vi *VectorIndex) Field() string { return vi.field }

// Mode returns the access method.
func (vi *VectorIndex) Mode() VecIndexMode { return vi.mode }

// Len returns the number of indexed vectors.
func (vi *VectorIndex) Len() int {
	if vi.mode == VecApprox {
		return vi.lshI.Len()
	}
	return len(vi.pts)
}

// Dim returns the indexed dimensionality (0 when no vectors were seen).
func (vi *VectorIndex) Dim() int { return vi.dim }

// KNN returns the k nearest indexed vectors to q in ascending
// (distance, id) order. Exact mode returns precisely the brute-force
// answer under that ordering; approximate mode returns the best of the
// LSH candidate union (possibly fewer than k).
func (vi *VectorIndex) KNN(q []float32, k int) []VecNeighbor {
	if k <= 0 {
		return nil
	}
	if vi.mode == VecApprox {
		ns := vi.lshI.KNN(q, k)
		out := make([]VecNeighbor, len(ns))
		for i, n := range ns {
			out[i] = VecNeighbor{ID: PatchID(n.Point.ID), Dist: n.Dist}
		}
		return out
	}
	// Exact: one bounded pass. The tree skips a ball only when it cannot
	// hold a point tying the keeper's worst, so the kept set is the
	// canonical top-k whatever order the points arrive in.
	keep := newNeighborKeep(k, len(vi.pts))
	tail := vi.pts[vi.treeN:]
	for _, p := range tail {
		keep.offer(VecNeighbor{ID: PatchID(p.ID), Dist: VecDist(p.Vec, q)})
	}
	evals := len(tail)
	if vi.ball != nil {
		evals += vi.ball.Nearest(q, keep.bound, func(p balltree.Point, d float64) {
			keep.offer(VecNeighbor{ID: PatchID(p.ID), Dist: d})
		})
	}
	if vi.evals != nil {
		vi.evals.Add(int64(evals))
	}
	SortNeighbors(keep.h)
	return keep.h
}

// RangeSearch calls fn for every indexed vector within eps of q
// (inclusive). Exact mode visits every true match; approximate mode
// only those in the candidate union. fn returning false stops the
// search. Visit order is unspecified. Returns the distances evaluated
// (balls, tail rows or candidates, each tested once).
func (vi *VectorIndex) RangeSearch(q []float32, eps float64, fn func(id PatchID, dist float64) bool) int {
	if vi.mode == VecApprox {
		return vi.lshI.RangeSearch(q, eps, func(p lsh.Point, d float64) bool {
			return fn(PatchID(p.ID), d)
		})
	}
	stopped := false
	evals := 0
	if vi.ball != nil {
		evals = vi.ball.RangeSearch(q, eps, func(p balltree.Point, d float64) bool {
			if !fn(PatchID(p.ID), d) {
				stopped = true
				return false
			}
			return true
		})
	}
	if stopped {
		return evals
	}
	// The tail applies the tree's membership test, so a row at the eps
	// boundary matches the same way before and after a re-tree.
	for _, p := range vi.pts[vi.treeN:] {
		evals++
		if d, ok := balltree.DistWithin(p.Vec, q, eps); ok {
			if !fn(PatchID(p.ID), d) {
				return evals
			}
		}
	}
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

// BruteKNN is the reference scan exact mode must match byte for byte:
// the k nearest vectors under field across ps, ascending (distance,
// id), distances through VecDist. Rows without the field (or with a
// dimensionality mismatch against the query) are skipped.
func BruteKNN(ps []*Patch, field string, q []float32, k int) []VecNeighbor {
	ns, _ := bruteKNN(ps, field, q, k)
	return ns
}

// ScanKNN is BruteKNN over the snapshot's rows, counted into the
// database's RefreshStats.
func (s Snapshot) ScanKNN(field string, q []float32, k int) []VecNeighbor {
	ns, evals := bruteKNN(s.rows, field, q, k)
	s.col.db.refresh.knnScanEvals.Add(int64(evals))
	return ns
}

// bruteKNN is BruteKNN, also returning the distances it evaluated.
func bruteKNN(ps []*Patch, field string, q []float32, k int) ([]VecNeighbor, int) {
	if k <= 0 {
		return nil, 0
	}
	keep := newNeighborKeep(k, len(ps))
	evals := 0
	for _, p := range ps {
		if vec, ok := vecOf(p, field); ok && len(vec) == len(q) {
			keep.offer(VecNeighbor{ID: p.ID, Dist: VecDist(vec, q)})
			evals++
		}
	}
	SortNeighbors(keep.h)
	return keep.h, evals
}

// VectorIndex returns a vector index over field in the given mode,
// current exactly as of the snapshot — the one the caller executes
// over, so index contents and query visibility can never skew. The
// index is cached per (field, mode) on the collection and maintained
// like the column store (see refreshCached): reused while the version
// matches, extended by the rows the snapshot holds past the cached
// index's, built privately for a reader behind it.
func (s Snapshot) VectorIndex(field string, mode VecIndexMode) (*VectorIndex, error) {
	c, key := s.col, field+"/"+mode.String()
	vi, _, err := refreshCached(&c.vecMu,
		func() *VectorIndex { return c.vecIdx[key] },
		func(vi *VectorIndex) {
			if c.vecIdx == nil {
				c.vecIdx = make(map[string]*VectorIndex)
			}
			c.vecIdx[key] = vi
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
			vi, err := NewVectorIndex(s, field, mode)
			if err == nil {
				c.db.refresh.vecRebuilds.Add(1)
				vi.evals = &c.db.refresh.knnIndexEvals
			}
			return vi, RefreshRebuild, err
		})
	return vi, err
}

// VectorIndexAt is Snapshot.VectorIndex over the rows ps at version
// ver, for the benchmark harness.
func (c *Collection) VectorIndexAt(ps []*Patch, ver uint64, field string, mode VecIndexMode) (*VectorIndex, error) {
	return Snapshot{c, ps, ver}.VectorIndex(field, mode)
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
	pts := fieldPoints(s.rows, field, treeSampleRows)
	if len(pts) < treeSampleRows {
		return scanStat
	}
	var probes, tree []balltree.Point
	for i, p := range pts {
		if i%(treeSampleRows/treeSampleProbes) == 0 {
			probes = append(probes, p)
		} else {
			tree = append(tree, p)
		}
	}
	t, _ := balltree.Build(tree) // one dimensionality: cannot fail
	var evals atomic.Int64
	vi := &VectorIndex{mode: VecExact, pts: tree, treeN: len(tree), ball: t, evals: &evals}
	for _, p := range probes {
		vi.KNN(p.Vec, key.k)
	}
	n := float64(len(tree))
	st := treeStat{probe: float64(evals.Load()) / treeSampleProbes / n, build: float64(t.BuildEvals()) / n}
	s.col.treeStats.Store(key, st)
	return st
}
