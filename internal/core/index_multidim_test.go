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
	snap, _ := ints.Current()
	lo := IntV(1)
	if _, err := hash.LookupRange(snap, &lo, nil); err == nil {
		t.Fatal("hash range lookup allowed")
	}
}
