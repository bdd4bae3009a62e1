// Package balltree implements the metric ball tree DeepLens uses for
// Euclidean threshold ("similarity") queries over high-dimensional patch
// features — the index behind the image-matching queries q1 and q4 and the
// on-the-fly index similarity join. Following Kumar et al.'s finding cited
// by the paper, the ball tree remains effective where KD-trees and R-trees
// degrade with dimensionality; its non-linear build/probe cost as the
// indexed relation grows is exactly what Figure 7 studies.
package balltree

import (
	"fmt"
	"math"
)

// Point is an indexed vector with a caller-assigned identifier.
type Point struct {
	Vec []float32
	ID  uint64
}

const leafSize = 16

type node struct {
	center []float32
	radius float64
	pts    []Point // leaf only
	left   *node
	right  *node
}

// Tree is an immutable ball tree built over a point set.
type Tree struct {
	dim   int
	root  *node
	size  int
	nodes int
	evals int // distances Build evaluated
}

// Dist returns the Euclidean distance between two equal-length vectors.
func Dist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// DistWithin returns Dist(a, b) and true if the squared distance is <=
// limit², or (0, false) after abandoning the accumulation early — the
// leaf-scan fast path for tight range queries, and the membership test
// RangeSearch applies to every point.
func DistWithin(a, b []float32, limit float64) (float64, bool) {
	limit2 := limit * limit
	var s float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		for k := i; k < i+8; k++ {
			d := float64(a[k]) - float64(b[k])
			s += d * d
		}
		if s > limit2 {
			return 0, false
		}
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	if s > limit2 {
		return 0, false
	}
	return math.Sqrt(s), true
}

// Build constructs a ball tree over pts, which it partitions in place
// and keeps: the tree owns the slice afterwards, so a caller that reads
// it again passes a copy. The vectors are shared, not copied. All must
// share one dimensionality.
func Build(pts []Point) (*Tree, error) {
	if len(pts) == 0 {
		return &Tree{}, nil
	}
	dim := len(pts[0].Vec)
	for _, p := range pts {
		if len(p.Vec) != dim {
			return nil, fmt.Errorf("balltree: mixed dimensions %d and %d", dim, len(p.Vec))
		}
	}
	t := &Tree{dim: dim, size: len(pts)}
	t.root = t.build(pts)
	return t, nil
}

func centroid(pts []Point, dim int) []float32 {
	c := make([]float32, dim)
	for _, p := range pts {
		for i, v := range p.Vec {
			c[i] += v
		}
	}
	inv := 1 / float32(len(pts))
	for i := range c {
		c[i] *= inv
	}
	return c
}

// build returns the ball over pts, counting its balls and the distances
// it evaluates into t.
func (t *Tree) build(pts []Point) *node {
	t.nodes++
	dim := len(pts[0].Vec)
	c := centroid(pts, dim)
	// The radius is the farthest point from the centroid, which also
	// seeds the left ball of a split; the farthest point from that seed
	// seeds the right ball.
	var radius float64
	var l int
	for i, p := range pts {
		if d := Dist(c, p.Vec); d >= radius {
			radius, l = d, i
		}
	}
	t.evals += len(pts)
	n := &node{center: c, radius: radius}
	if len(pts) <= leafSize {
		n.pts = pts
		return n
	}
	t.evals += len(pts)
	var r int
	var rd float64
	for i, p := range pts {
		if d := Dist(pts[l].Vec, p.Vec); d >= rd {
			rd, r = d, i
		}
	}
	if l == r { // all points identical: force a leaf
		n.pts = pts
		return n
	}
	lv, rv := pts[l].Vec, pts[r].Vec
	// Partition in place by closer seed, keeping both sides non-empty.
	i, j := 0, len(pts)-1
	for i <= j {
		t.evals += 2
		if Dist(lv, pts[i].Vec) <= Dist(rv, pts[i].Vec) {
			i++
		} else {
			pts[i], pts[j] = pts[j], pts[i]
			j--
		}
	}
	if i == 0 || i == len(pts) { // degenerate partition: split by halves
		i = len(pts) / 2
	}
	n.left = t.build(pts[:i])
	n.right = t.build(pts[i:])
	return n
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Dim returns the vector dimensionality (0 when empty).
func (t *Tree) Dim() int { return t.dim }

// Nodes returns the number of balls in the tree (0 when empty).
func (t *Tree) Nodes() int { return t.nodes }

// BuildEvals returns the distances Build evaluated: one per point per
// ball for its radius, and three more per point of a ball it split.
func (t *Tree) BuildEvals() int { return t.evals }

// RangeSearch calls fn for every point within radius eps of q (inclusive).
// fn returning false stops the search. Returns the distances evaluated,
// one per ball centre and point tested: at most Len() + Nodes().
func (t *Tree) RangeSearch(q []float32, eps float64, fn func(Point, float64) bool) int {
	if t.root == nil {
		return 0
	}
	evals := 0
	rangeSearch(t.root, q, eps, fn, &evals)
	return evals
}

// rangeSearch reports n's matches to fn, adding the distances it
// evaluates to evals; false means fn stopped the search.
func rangeSearch(n *node, q []float32, eps float64, fn func(Point, float64) bool, evals *int) bool {
	*evals++
	if _, ok := DistWithin(n.center, q, n.radius+eps); !ok {
		return true // ball cannot contain any match
	}
	if n.pts != nil {
		for _, p := range n.pts {
			*evals++
			if d, ok := DistWithin(p.Vec, q, eps); ok {
				if !fn(p, d) {
					return false
				}
			}
		}
		return true
	}
	if !rangeSearch(n.left, q, eps, fn, evals) {
		return false
	}
	return rangeSearch(n.right, q, eps, fn, evals)
}

// Nearest calls visit with each point, and its distance to q, of every
// ball that may hold a point within bound() of q, closer child first.
// bound is re-read at each ball. A ball is skipped only when dist(q,
// centre) − radius exceeds bound() by more than a 1e-9 relative slack
// against rounding, so no point tying bound() is pruned. Returns the
// distances evaluated: at most Len() + Nodes(), one per point and centre.
func (t *Tree) Nearest(q []float32, bound func() float64, visit func(Point, float64)) int {
	if t.root == nil {
		return 0
	}
	return 1 + nearest(t.root, Dist(t.root.center, q), q, bound, visit)
}

// nearest walks n, whose centre is dc from q, and returns the distances
// evaluated below that centre.
func nearest(n *node, dc float64, q []float32, bound func() float64, visit func(Point, float64)) int {
	if dc-n.radius > bound()*(1+1e-9) {
		return 0
	}
	if n.pts != nil {
		for _, p := range n.pts {
			visit(p, Dist(p.Vec, q))
		}
		return len(n.pts)
	}
	a, b := n.left, n.right
	da, db := Dist(a.center, q), Dist(b.center, q)
	if da > db {
		a, b, da, db = b, a, db, da
	}
	return 2 + nearest(a, da, q, bound, visit) + nearest(b, db, q, bound, visit)
}
