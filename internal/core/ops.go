package core

import (
	"fmt"
	"sort"
)

// Predicate evaluates a tuple.
type Predicate func(Tuple) bool

// Pred is a selection predicate on one metadata field: equality with V
// (Value.Equal), or (Range) the half-open numeric range Lo <= field < Hi,
// where ints compare as floats and non-numerics fail both bounds. Every
// access path DB.Select runs answers exactly the rows Match accepts.
type Pred struct {
	Field  string
	Range  bool
	V      Value
	Lo, Hi float64
}

// Match is the row predicate: p carries the field and its value
// satisfies pr (a missing field never matches).
func (pr *Pred) Match(p *Patch) bool {
	mv, ok := p.Get(pr.Field)
	if !ok {
		return false
	}
	if pr.Range {
		f := mv.AsFloat()
		return f >= pr.Lo && f < pr.Hi
	}
	return mv.Equal(pr.V)
}

// FieldEq builds a predicate on one metadata field of the tuple's first
// patch.
func FieldEq(field string, v Value) Predicate {
	pr := Pred{Field: field, V: v}
	return func(t Tuple) bool { return pr.Match(t[0]) }
}

// FieldRange builds lo <= field < hi on the first patch (numeric fields).
func FieldRange(field string, lo, hi float64) Predicate {
	pr := Pred{Field: field, Range: true, Lo: lo, Hi: hi}
	return func(t Tuple) bool { return pr.Match(t[0]) }
}

// Select filters tuples by pred (§5's Select operator).
func Select(in Iterator, pred Predicate) Iterator {
	return NewFuncIterator(func() (Tuple, bool, error) {
		for {
			t, ok, err := in.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			if pred(t) {
				return t, true, nil
			}
		}
	}, in.Close)
}

// Transform maps each tuple through fn (patch generators and transformers
// are Transform instances over single-patch tuples). fn returning an empty
// slice drops the input; returning several fans out.
func Transform(in Iterator, fn func(Tuple) ([]Tuple, error)) Iterator {
	var pending []Tuple
	return NewFuncIterator(func() (Tuple, bool, error) {
		for {
			if len(pending) > 0 {
				t := pending[0]
				pending = pending[1:]
				return t, true, nil
			}
			t, ok, err := in.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			outs, err := fn(t)
			if err != nil {
				return nil, false, err
			}
			pending = outs
		}
	}, in.Close)
}

// Project keeps only the named metadata fields (plus lineage attributes)
// and drops the dense payload — the classic width reducer before
// materialization.
func Project(in Iterator, fields ...string) Iterator {
	keep := make(map[string]bool, len(fields)+2)
	for _, f := range fields {
		keep[f] = true
	}
	keep["_source"] = true
	keep["_frame"] = true
	return Transform(in, func(t Tuple) ([]Tuple, error) {
		out := make(Tuple, len(t))
		for i, p := range t {
			q := &Patch{ID: p.ID, Ref: p.Ref, Meta: Metadata{}}
			for k, v := range p.Range {
				if keep[k] {
					q.Meta[k] = v
				}
			}
			out[i] = q
		}
		return []Tuple{out}, nil
	})
}

// Limit stops after n tuples.
func Limit(in Iterator, n int) Iterator {
	emitted := 0
	return NewFuncIterator(func() (Tuple, bool, error) {
		if emitted >= n {
			return nil, false, nil
		}
		t, ok, err := in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		emitted++
		return t, true, nil
	}, in.Close)
}

// CompareBy is the one row order every sort and top-k keeps: a and b
// compared by their values of field (Value.Compare; a missing field
// compares as the zero Value, before every real value), reversed when
// desc. Callers break its ties themselves, in input order.
func CompareBy(a, b *Patch, field string, desc bool) int {
	va, _ := a.Get(field)
	vb, _ := b.Get(field)
	if desc {
		return vb.Compare(va)
	}
	return va.Compare(vb)
}

// OrderBy sorts (materializing) by a comparable metadata field of the
// first patch.
func OrderBy(in Iterator, field string, asc bool) Iterator {
	ts, err := Drain(in)
	if err != nil {
		return NewFuncIterator(func() (Tuple, bool, error) { return nil, false, err }, nil)
	}
	sort.SliceStable(ts, func(i, j int) bool {
		return CompareBy(ts[i][0], ts[j][0], field, !asc) < 0
	})
	return NewSliceIterator(ts)
}

// TopK is OrderBy immediately followed by Limit(n), computed with a
// bounded heap: O(len·log n) compares and O(n) extra memory instead of a
// full materializing sort. The emitted tuples are exactly the first n of
// OrderBy's stable output (ties resolve in input order).
func TopK(in Iterator, field string, asc bool, n int) Iterator {
	ts, err := Drain(in)
	if err != nil {
		return NewFuncIterator(func() (Tuple, bool, error) { return nil, false, err }, nil)
	}
	if n > len(ts) {
		n = len(ts)
	}
	if n < 0 {
		n = 0
	}
	top := topKIndexes(len(ts), n, func(a, b int) bool {
		if c := CompareBy(ts[a][0], ts[b][0], field, !asc); c != 0 {
			return c < 0
		}
		return a < b
	})
	out := make([]Tuple, n)
	for i, idx := range top {
		out[i] = ts[idx]
	}
	return NewSliceIterator(out)
}

// TopKPatches returns the first k patches of a stable sort of ps by
// field (ties in input order), in sorted order, without sorting the
// whole input: a bounded heap keeps the best k seen. k >= len(ps)
// degenerates to a full stable sort of a copy; ps is never mutated.
// Patches missing the field order as the zero Value (before every real
// value ascending, after descending), matching the sort comparator.
func TopKPatches(ps []*Patch, field string, desc bool, k int) []*Patch {
	if k > len(ps) {
		k = len(ps)
	}
	if k <= 0 {
		return nil
	}
	top := topKIndexes(len(ps), k, func(a, b int) bool {
		if c := CompareBy(ps[a], ps[b], field, desc); c != 0 {
			return c < 0
		}
		return a < b
	})
	out := make([]*Patch, k)
	for i, idx := range top {
		out[i] = ps[idx]
	}
	return out
}

// topHeap keeps the k smallest values offered so far under the strict
// total order before. The bounded heap holds the worst survivor at the
// root, so a candidate once the heap is full costs one compare, plus
// log k when it displaces.
type topHeap[T any] struct {
	k      int
	h      []T
	before func(a, b T) bool // by value: a pointer handed to a func value escapes
}

func (t *topHeap[T]) down(i int) {
	h := t.h
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && t.before(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && t.before(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

func (t *topHeap[T]) offer(v T) {
	switch {
	case len(t.h) < t.k:
		if t.h = append(t.h, v); len(t.h) == t.k {
			t.heapify()
		}
	case t.before(v, t.h[0]):
		t.h[0] = v
		t.down(0)
	}
}

func (t *topHeap[T]) heapify() {
	for i := len(t.h)/2 - 1; i >= 0; i-- {
		t.down(i)
	}
}

// sorted returns the survivors in order (fewer than k when fewer were
// offered). The heap is spent afterwards. A heap that never filled is
// heapified first, so the sort sees the same arrangement whether k was
// clamped to the candidate count or not: under an order NaN makes
// non-transitive, the answer still depends only on the candidates.
func (t *topHeap[T]) sorted() []T {
	if len(t.h) < t.k {
		t.heapify()
	}
	sort.Slice(t.h, func(i, j int) bool { return t.before(t.h[i], t.h[j]) })
	return t.h
}

// topKIndexes selects the k smallest of [0, n) under the strict total
// order `before` and returns them sorted.
func topKIndexes(n, k int, before func(a, b int) bool) []int {
	if k <= 0 {
		return nil
	}
	top := topHeap[int]{k: k, h: make([]int, 0, k), before: before}
	for i := 0; i < n; i++ {
		top.offer(i)
	}
	return top.sorted()
}

// GroupCount groups by a metadata field and emits one synthetic patch per
// group with fields {group, count} — the aggregation q2 needs ("count per
// frame number").
func GroupCount(in Iterator, field string) Iterator {
	ts, err := Drain(in)
	if err != nil {
		return NewFuncIterator(func() (Tuple, bool, error) { return nil, false, err }, nil)
	}
	type group struct {
		val Value
		n   int64
	}
	byKey := map[string]*group{}
	var order []string
	for _, t := range ts {
		v, ok := t[0].Get(field)
		if !ok {
			continue
		}
		sk, err := v.SortKey()
		if err != nil {
			continue
		}
		k := string(sk)
		g, ok := byKey[k]
		if !ok {
			g = &group{val: v}
			byKey[k] = g
			order = append(order, k)
		}
		g.n++
	}
	sort.Strings(order)
	out := make([]Tuple, 0, len(order))
	for _, k := range order {
		g := byKey[k]
		out = append(out, Tuple{&Patch{Meta: Metadata{
			"group": g.val,
			"count": IntV(g.n),
		}}})
	}
	return NewSliceIterator(out)
}

// VecField extracts the float32 vector under field, or the Data payload
// when field is "".
func VecField(p *Patch, field string) ([]float32, error) {
	vec, ok := vecOf(p, field)
	if !ok {
		return nil, fmt.Errorf("core: patch %d has no vector under %q", p.ID, field)
	}
	return vec, nil
}
