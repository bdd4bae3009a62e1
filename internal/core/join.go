package core

import (
	"fmt"
	"sort"

	"repro/internal/balltree"
	"repro/internal/exec"
	"repro/internal/tensor"
)

// SimilarityJoinOpts configures a feature-matching join.
type SimilarityJoinOpts struct {
	// LeftField/RightField name the vector metadata ("" = Data payload).
	LeftField, RightField string
	// Eps is the Euclidean match threshold.
	Eps float64
	// ExcludeSelf drops pairs with identical patch ids (self-joins).
	ExcludeSelf bool
	// DedupUnordered keeps only pairs with left.ID < right.ID (self-joins).
	DedupUnordered bool
	// Device overrides the database's device for batched kernels. The
	// serving layer pins each join task to one of its batcher-fronted
	// devices, so concurrent queries' kernels fuse instead of
	// oversubscribing a simulated accelerator. Nil uses the database's
	// device.
	Device exec.Device
}

// SimilarityJoin runs method m (see PlanSimilarityJoin) over left and
// right, rows of the snapshot s. The join-index method probes s's exact
// vector index — so right must be all of s's rows, and the pairs are the
// ones the scan-based methods find — and batched kernels run on
// opts.Device, or else s's database's device.
func (s Snapshot) SimilarityJoin(m SimMethod, left, right []*Patch, opts SimilarityJoinOpts) ([]Tuple, error) {
	switch m {
	case SimVecIndexed:
		vi, err := s.VectorIndex(opts.RightField)
		if err != nil {
			return nil, err
		}
		pairs, _, err := SimilarityJoinVecIndexed(left, vi, opts)
		return pairs, err
	case SimOnTheFly:
		return SimilarityJoinOnTheFly(left, right, opts)
	case SimBatched:
		return SimilarityJoinBatched(s.col.db, left, right, opts)
	default:
		return SimilarityJoinNested(left, right, opts)
	}
}

// SimilarityJoinNested is the baseline all-pairs implementation: for every
// left patch, scan every right patch and compare distances one by one —
// what DeepLens runs when no index exists.
func SimilarityJoinNested(left, right []*Patch, opts SimilarityJoinOpts) ([]Tuple, error) {
	var out []Tuple
	eps2 := opts.Eps * opts.Eps
	for _, l := range left {
		lv, err := VecField(l, opts.LeftField)
		if err != nil {
			return nil, err
		}
		for _, r := range right {
			if opts.ExcludeSelf && l.ID == r.ID {
				continue
			}
			if opts.DedupUnordered && l.ID >= r.ID {
				continue
			}
			rv, err := VecField(r, opts.RightField)
			if err != nil {
				return nil, err
			}
			if len(rv) != len(lv) {
				return nil, fmt.Errorf("core: similarity join dims %d vs %d", len(lv), len(rv))
			}
			var s float64
			for i := range lv {
				d := float64(lv[i]) - float64(rv[i])
				s += d * d
				if s > eps2 {
					break
				}
			}
			if s <= eps2 {
				out = append(out, Tuple{l, r})
			}
		}
	}
	return out, nil
}

// joinBlock is the left rows SimilarityJoinBatched computes distances for
// per kernel.
const joinBlock = 256

// SimilarityJoinBatched is the vectorized all-pairs implementation: the
// full distance matrix is computed with one device kernel per left block —
// the execution Figure 8 compares across CPU/AVX/GPU at query time.
func SimilarityJoinBatched(db *DB, left, right []*Patch, opts SimilarityJoinOpts) ([]Tuple, error) {
	if len(left) == 0 || len(right) == 0 {
		return nil, nil
	}
	lv0, err := VecField(left[0], opts.LeftField)
	if err != nil {
		return nil, err
	}
	dim := len(lv0)
	// The three staging matrices (stacked left vectors, stacked right
	// vectors, per-block distance tile) are identical across calls at
	// steady state; draw them from the scratch pool instead of allocating
	// per join so concurrent serving stays allocation-steady.
	lx := tensor.GetScratch(len(left) * dim)
	defer tensor.PutScratch(lx)
	for i, p := range left {
		v, err := VecField(p, opts.LeftField)
		if err != nil {
			return nil, err
		}
		if len(v) != dim {
			return nil, fmt.Errorf("core: similarity join dims %d vs %d", dim, len(v))
		}
		copy(lx[i*dim:], v)
	}
	ry := tensor.GetScratch(len(right) * dim)
	defer tensor.PutScratch(ry)
	for i, p := range right {
		v, err := VecField(p, opts.RightField)
		if err != nil {
			return nil, err
		}
		if len(v) != dim {
			return nil, fmt.Errorf("core: similarity join dims %d vs %d", dim, len(v))
		}
		copy(ry[i*dim:], v)
	}
	dev := opts.Device
	if dev == nil {
		dev = db.Device()
	}
	eps2 := float32(opts.Eps * opts.Eps)
	var out []Tuple
	// Block the left side to bound the distance-matrix size; one pooled
	// tile is reused across every block (and across calls).
	n := min(joinBlock, len(left))
	dists := tensor.GetScratch(n * len(right))
	defer tensor.PutScratch(dists)
	for lo := 0; lo < len(left); lo += joinBlock {
		hi := min(lo+joinBlock, len(left))
		m := hi - lo
		dev.PairwiseSqDist(lx[lo*dim:hi*dim], ry, m, len(right), dim, dists[:m*len(right)])
		for i := 0; i < m; i++ {
			l := left[lo+i]
			for j, r := range right {
				if dists[i*len(right)+j] > eps2 {
					continue
				}
				if opts.ExcludeSelf && l.ID == r.ID {
					continue
				}
				if opts.DedupUnordered && l.ID >= r.ID {
					continue
				}
				out = append(out, Tuple{l, r})
			}
		}
	}
	return out, nil
}

// SimilarityJoinVecIndexed probes a maintained vector index (see
// Snapshot.VectorIndex), extended incrementally on append instead of
// rebuilt per version; the right rows are those of the index's own
// snapshot, materialized in one block at the first pair. The pair set
// is identical to the all-pairs methods over those rows. It also
// returns the distances the probes evaluated (the sum of RangeSearch's
// counts).
func SimilarityJoinVecIndexed(left []*Patch, vi *VectorIndex, opts SimilarityJoinOpts) ([]Tuple, int, error) {
	var out []Tuple
	var ferr error
	var right []*Patch
	evals := 0
	for _, l := range left {
		lv, err := VecField(l, opts.LeftField)
		if err != nil {
			return nil, 0, err
		}
		evals += vi.RangeSearch(lv, opts.Eps, func(id PatchID, _ float64) bool {
			if opts.ExcludeSelf && l.ID == id {
				return true
			}
			if opts.DedupUnordered && l.ID >= id {
				return true
			}
			at, ok := vi.at.Find(id)
			if !ok {
				ferr = fmt.Errorf("%w: patch %d", ErrNotFound, id)
				return false
			}
			if right == nil {
				right = vi.at.Patches()
			}
			out = append(out, Tuple{l, right[at]})
			return true
		})
		if ferr != nil {
			return nil, 0, ferr
		}
	}
	return out, evals, nil
}

// SimilarityJoinOnTheFly implements §5's "On-The-Fly Index Similarity
// Join": build an in-memory ball tree over the smaller relation, then
// probe with the other. Index construction is charged to the query.
func SimilarityJoinOnTheFly(left, right []*Patch, opts SimilarityJoinOpts) ([]Tuple, error) {
	buildRight := len(right) <= len(left)
	build, probe := right, left
	buildField, probeField := opts.RightField, opts.LeftField
	if !buildRight {
		build, probe = left, right
		buildField, probeField = opts.LeftField, opts.RightField
	}
	pts := make([]balltree.Point, 0, len(build))
	byID := make(map[PatchID]*Patch, len(build))
	for _, p := range build {
		v, err := VecField(p, buildField)
		if err != nil {
			return nil, err
		}
		pts = append(pts, balltree.Point{Vec: v, ID: uint64(p.ID)})
		byID[p.ID] = p
	}
	bt, err := balltree.Build(pts)
	if err != nil {
		return nil, err
	}
	var out []Tuple
	for _, q := range probe {
		qv, err := VecField(q, probeField)
		if err != nil {
			return nil, err
		}
		bt.RangeSearch(qv, opts.Eps, func(pt balltree.Point, _ float64) bool {
			m := byID[PatchID(pt.ID)]
			var l, r *Patch
			if buildRight {
				l, r = q, m
			} else {
				l, r = m, q
			}
			if opts.ExcludeSelf && l.ID == r.ID {
				return true
			}
			if opts.DedupUnordered && l.ID >= r.ID {
				return true
			}
			out = append(out, Tuple{l, r})
			return true
		})
	}
	return out, nil
}

// RangeThetaJoinSorted evaluates l.field > r.field + gap by sorting the
// right side and binary-searching per left patch — the accelerated plan
// for q6's depth comparison. Results match the nested-loop θ-join.
func RangeThetaJoinSorted(left, right []*Patch, field string, gap float64) ([]Tuple, error) {
	type entry struct {
		v float64
		p *Patch
	}
	rs := make([]entry, 0, len(right))
	for _, r := range right {
		v, ok := r.Get(field)
		if !ok {
			continue
		}
		rs = append(rs, entry{v.AsFloat(), r})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].v < rs[j].v })
	var out []Tuple
	for _, l := range left {
		lv, ok := l.Get(field)
		if !ok {
			continue
		}
		limit := lv.AsFloat() - gap
		// All right entries with value < limit match.
		n := sort.Search(len(rs), func(i int) bool { return rs[i].v >= limit })
		for i := 0; i < n; i++ {
			if rs[i].p.ID == l.ID {
				continue
			}
			out = append(out, Tuple{l, rs[i].p})
		}
	}
	return out, nil
}

// Clusters groups patches into identity clusters by single-link
// similarity (the two patches of a matching pair are the same identity)
// and returns each cluster's members. Clusters come in the order of
// their first member, and members in patches order. Pairs that name a
// patch outside patches are skipped. pairs typically come from a
// similarity self-join with DedupUnordered.
func Clusters(patches []*Patch, pairs []Tuple) [][]*Patch {
	idx := make(map[PatchID]int, len(patches))
	for i, p := range patches {
		idx[p.ID] = i
	}
	parent := make([]int, len(patches))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, pr := range pairs {
		a, aok := idx[pr[0].ID]
		b, bok := idx[pr[1].ID]
		if !aok || !bok {
			continue
		}
		if ra, rb := find(a), find(b); ra != rb {
			parent[ra] = rb
		}
	}
	var out [][]*Patch
	slot := make([]int, len(patches)) // root -> 1 + its cluster's index in out
	for i, p := range patches {
		r := find(i)
		if slot[r] == 0 {
			out = append(out, nil)
			slot[r] = len(out)
		}
		out[slot[r]-1] = append(out[slot[r]-1], p)
	}
	return out
}

// DistinctClusters returns one representative per identity cluster (see
// Clusters), the first member of each — the deduplication step of q4.
func DistinctClusters(patches []*Patch, pairs []Tuple) []*Patch {
	clusters := Clusters(patches, pairs)
	out := make([]*Patch, len(clusters))
	for i, cl := range clusters {
		out[i] = cl[0]
	}
	return out
}
