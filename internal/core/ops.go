package core

import (
	"fmt"
	"slices"
	"sort"
)

// Pred is a selection predicate on one metadata field: equality with V
// (Value.Equal), or (Range) the half-open numeric range Lo <= field < Hi,
// where ints compare as floats and non-numerics fail both bounds. Every
// access path Snapshot.Select runs answers exactly the rows Match accepts.
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

// Transform maps each patch through fn (patch generators and
// transformers are Transform instances). fn returning no patches drops
// the input; returning several fans out.
func Transform(in Stream, fn func(*Patch) ([]*Patch, error)) Stream {
	return func(yield func(*Patch, error) bool) {
		for p, err := range in {
			if err != nil {
				yield(nil, err)
				return
			}
			outs, err := fn(p)
			if err != nil {
				yield(nil, err)
				return
			}
			for _, q := range outs {
				if !yield(q, nil) {
					return
				}
			}
		}
	}
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
// slices.SortFunc runs the pdqsort sort.Slice runs, asking only whether
// cmp is negative, so it orders exactly as sort.Slice with before as
// less would, without the reflect swapper.
func (t *topHeap[T]) sorted() []T {
	if len(t.h) < t.k {
		t.heapify()
	}
	slices.SortFunc(t.h, func(a, b T) int {
		if t.before(a, b) {
			return -1
		}
		return 1
	})
	return t.h
}

// GroupCount groups patches by a metadata field and returns one
// synthetic patch per group with fields {group, count}, in group
// sort-key order — Example 1's "cars per frame" (examples/quickstart).
func GroupCount(patches []*Patch, field string) []*Patch {
	type group struct {
		val Value
		n   int64
	}
	byKey := map[string]*group{}
	var order []string
	for _, p := range patches {
		v, ok := p.Get(field)
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
	out := make([]*Patch, 0, len(order))
	for _, k := range order {
		g := byKey[k]
		out = append(out, &Patch{Meta: Metadata{
			"group": g.val,
			"count": IntV(g.n),
		}})
	}
	return out
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
