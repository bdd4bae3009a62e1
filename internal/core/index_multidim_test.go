package core

import (
	"math/rand"
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

// TestIndexKindMismatchErrors: core.Index is hash and B+ tree only —
// every entry point refuses any other kind (the multidimensional access
// methods live in VectorIndex and the join-local R-tree) — and a hash
// index refuses range lookups.
func TestIndexKindMismatchErrors(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("m", rectSchema())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		col.Append(mkSpatialPatch(rng, int64(i)))
	}
	for _, kind := range []IndexKind{0, IdxHash + 1, IdxHash + 2, IdxHash + 3} {
		if _, err := db.BuildIndex(col, "emb", kind); err == nil {
			t.Fatalf("BuildIndex accepted %v", kind)
		}
		if _, err := db.EnsureIndex(col, "emb", kind); err == nil {
			t.Fatalf("EnsureIndex accepted %v", kind)
		}
		if _, err := db.Index(col, "emb", kind); err == nil {
			t.Fatalf("Index accepted %v", kind)
		}
	}
	sch := Schema{Fields: []Field{{Name: "n", Kind: KindInt}}}
	ints, _ := db.CreateCollection("ints", sch)
	for i := 0; i < 10; i++ {
		ints.Append(&Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Meta: Metadata{"n": IntV(int64(i))}})
	}
	hash, err := db.BuildIndex(ints, "n", IdxHash)
	if err != nil {
		t.Fatal(err)
	}
	snap, ver, _ := ints.Snapshot()
	lo := IntV(1)
	if _, err := hash.LookupRange(snap, ver, &lo, nil); err == nil {
		t.Fatal("hash range lookup allowed")
	}
}

// TestSpatialJoinOnTheFlyMatchesNested: the R-tree join returns exactly
// the all-pairs intersection join's pairs, rows without a rect on either
// side included.
func TestSpatialJoinOnTheFlyMatchesNested(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var lps, rps []*Patch
	for i := 0; i < 150; i++ {
		l, r := mkSpatialPatch(rng, int64(i)), mkSpatialPatch(rng, int64(i))
		l.ID, r.ID = PatchID(2*i+1), PatchID(2*i+2)
		if i%10 == 0 {
			delete(l.Meta, "bbox")
			delete(r.Meta, "bbox")
		}
		lps, rps = append(lps, l), append(rps, r)
	}
	nested, err := SpatialJoinNested(lps, rps, "bbox", "bbox")
	if err != nil {
		t.Fatal(err)
	}
	fly, err := SpatialJoinOnTheFly(lps, rps, "bbox", "bbox")
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
	nk, fk := key(nested), key(fly)
	if len(nk) != len(nested) || len(fk) != len(fly) || len(nk) != len(fk) {
		t.Fatalf("nested %d pairs (%d distinct), on-the-fly %d (%d distinct)",
			len(nested), len(nk), len(fly), len(fk))
	}
	for p := range nk {
		if !fk[p] {
			t.Fatalf("on-the-fly join missing pair %v", p)
		}
	}
	if out, _ := SpatialJoinOnTheFly(lps, nil, "bbox", "bbox"); len(out) != 0 {
		t.Fatalf("empty right side joined %d pairs", len(out))
	}
}
