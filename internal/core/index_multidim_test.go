package core

import (
	"math/rand"
	"sort"
	"testing"
)

func rectSchema() Schema {
	return Schema{Fields: []Field{
		{Name: "bbox", Kind: KindRect},
		{Name: "emb", Kind: KindVec},
	}}
}

func mkSpatialPatch(rng *rand.Rand, frame int64) *Patch {
	x := rng.Float64() * 180
	y := rng.Float64() * 90
	v := make([]float32, 16)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return &Patch{
		Ref: Ref{Source: "s", Frame: uint64(frame)},
		Meta: Metadata{
			"bbox": RectV(x, y, x+5+rng.Float64()*15, y+5+rng.Float64()*10),
			"emb":  VecV(v),
		},
	}
}

func TestRTreeIndexIntersect(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("boxes", rectSchema())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		if err := col.Append(mkSpatialPatch(rng, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := db.BuildIndex(col, "bbox", IdxRTree)
	if err != nil {
		t.Fatal(err)
	}
	qx1, qy1, qx2, qy2 := 50.0, 20.0, 110.0, 60.0
	got, err := idx.LookupIntersect(qx1, qy1, qx2, qy2)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: scan.
	ps, _ := col.Patches()
	var want []PatchID
	for _, p := range ps {
		b := p.Meta["bbox"].V
		if float64(b[0]) <= qx2 && float64(b[2]) >= qx1 &&
			float64(b[1]) <= qy2 && float64(b[3]) >= qy1 {
			want = append(want, p.ID)
		}
	}
	sortIDs(got)
	sortIDs(want)
	if len(got) != len(want) {
		t.Fatalf("intersect: %d ids, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("id mismatch at %d", i)
		}
	}
	if len(want) == 0 {
		t.Fatal("vacuous test: no boxes in the query window")
	}
}

func TestLSHIndexSimilar(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("vecs", rectSchema())
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		col.Append(mkSpatialPatch(rng, int64(i)))
	}
	ps, _ := col.Patches()
	q := ps[7].Meta["emb"].V
	const eps = 3.0
	// Reference: exact scan.
	var want []PatchID
	for _, p := range ps {
		v := p.Meta["emb"].V
		var s float64
		for i := range v {
			d := float64(v[i]) - float64(q[i])
			s += d * d
		}
		if s <= eps*eps {
			want = append(want, p.ID)
		}
	}
	sortIDs(want)
	if len(want) < 2 {
		t.Fatal("vacuous: query matches almost nothing")
	}

	lshIdx, err := db.BuildIndex(col, "emb", IdxLSH)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := lshIdx.LookupSimilar(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	// LSH is approximate: everything returned must be a true match (exact
	// verification happens inside), and the query point itself must be hit.
	wantSet := map[PatchID]bool{}
	for _, id := range want {
		wantSet[id] = true
	}
	self := false
	for _, id := range approx {
		if !wantSet[id] {
			t.Fatalf("lsh returned non-match %d", id)
		}
		if id == ps[7].ID {
			self = true
		}
	}
	if !self {
		t.Fatal("lsh missed the query point itself")
	}
}

func TestIndexKindMismatchErrors(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("m", rectSchema())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		col.Append(mkSpatialPatch(rng, int64(i)))
	}
	rt, _ := db.BuildIndex(col, "bbox", IdxRTree)
	if _, err := rt.LookupEq(nil, 0, StrV("x")); err == nil {
		t.Fatal("rtree equality lookup allowed")
	}
	if _, err := rt.LookupSimilar([]float32{1}, 1); err == nil {
		t.Fatal("rtree similarity lookup allowed")
	}
	ball, _ := db.BuildIndex(col, "emb", IdxBallTree)
	if _, err := ball.LookupIntersect(0, 0, 1, 1); err == nil {
		t.Fatal("balltree spatial lookup allowed")
	}
	lo := IntV(1)
	if _, err := ball.LookupRange(nil, 0, &lo, nil); err == nil {
		t.Fatal("balltree range lookup allowed")
	}
}

func TestQuickIndexEquivalence(t *testing.T) {
	// Property: for random vector datasets and thresholds, the ball-tree
	// index returns exactly the scan result.
	db := openDB(t)
	col, _ := db.CreateCollection("q", rectSchema())
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		col.Append(mkSpatialPatch(rng, int64(i)))
	}
	ps, _ := col.Patches()
	idx, err := db.BuildIndex(col, "emb", IdxBallTree)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		q := ps[rng.Intn(len(ps))].Meta["emb"].V
		eps := 0.5 + rng.Float64()*4
		got, err := idx.LookupSimilar(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		var want []PatchID
		for _, p := range ps {
			v := p.Meta["emb"].V
			var s float64
			for i := range v {
				d := float64(v[i]) - float64(q[i])
				s += d * d
			}
			if s <= eps*eps {
				want = append(want, p.ID)
			}
		}
		sortIDs(got)
		sortIDs(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID }) // keep ps referenced
}

func TestSpatialJoinIndexedMatchesNested(t *testing.T) {
	db := openDB(t)
	left, _ := db.CreateCollection("sl", rectSchema())
	right, _ := db.CreateCollection("sr", rectSchema())
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		left.Append(mkSpatialPatch(rng, int64(i)))
		right.Append(mkSpatialPatch(rng, int64(i)))
	}
	lps, _ := left.Patches()
	idx, err := db.BuildIndex(right, "bbox", IdxRTree)
	if err != nil {
		t.Fatal(err)
	}
	rps, _ := right.Patches()
	nested, err := SpatialJoinNested(lps, rps, "bbox", "bbox")
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := SpatialJoinIndexed(db, lps, right, idx, "bbox")
	if err != nil {
		t.Fatal(err)
	}
	if len(nested) == 0 {
		t.Fatal("vacuous: no intersecting pairs")
	}
	key := func(ts []Tuple) map[[2]PatchID]bool {
		m := map[[2]PatchID]bool{}
		for _, tp := range ts {
			m[[2]PatchID{tp[0].ID, tp[1].ID}] = true
		}
		return m
	}
	nk, ik := key(nested), key(indexed)
	if len(nk) != len(ik) {
		t.Fatalf("nested %d pairs, indexed %d", len(nk), len(ik))
	}
	for p := range nk {
		if !ik[p] {
			t.Fatalf("indexed join missing pair %v", p)
		}
	}
}
