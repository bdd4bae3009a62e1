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

// TestIndexKindMismatchErrors: BuildIndex takes the sorted kind only —
// the multidimensional access methods live in VectorIndex and the
// join-local R-tree — over a field with a column.
func TestIndexKindMismatchErrors(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("m", rectSchema())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		col.Append(mkSpatialPatch(rng, int64(i)))
	}
	for _, kind := range []IndexKind{0, IdxSorted, IdxSorted + 1, IdxSorted + 2, IdxSorted + 3} {
		if _, err := db.BuildIndex(col, "emb", kind); err == nil {
			t.Fatalf("BuildIndex accepted %v over a vector field", kind)
		}
	}
	sch := Schema{Fields: []Field{{Name: "n", Kind: KindInt}}}
	ints, _ := db.CreateCollection("ints", sch)
	for i := 0; i < 10; i++ {
		ints.Append(&Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Meta: Metadata{"n": IntV(int64(i))}})
	}
	if _, err := db.BuildIndex(ints, "n", IdxSorted+1); err == nil {
		t.Fatal("BuildIndex accepted an unknown kind")
	}
	if _, err := db.BuildIndex(ints, "n", IdxSorted); err != nil {
		t.Fatal(err)
	}
}
