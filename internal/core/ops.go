package core

import (
	"fmt"
	"sort"
)

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

// GroupCount groups by a metadata field and emits one synthetic patch per
// group with fields {group, count}, in group sort-key order — Example 1's
// "cars per frame" (examples/quickstart).
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
