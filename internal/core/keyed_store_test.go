package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

// keyedSchemas are the collections of testdata/keyed_rows.db: every kind
// a field declares, a fixed and a variable vector, pixel and feature
// payloads.
var keyedSchemas = map[string]Schema{
	"dets": {Data: Pixels(0, 0), Fields: []Field{
		{Name: "label", Kind: KindStr},
		{Name: "score", Kind: KindFloat},
		{Name: "rank", Kind: KindInt},
		{Name: "emb", Kind: KindVec, VecDim: 3},
		{Name: "hist", Kind: KindVec},
		{Name: "bbox", Kind: KindRect},
	}},
	"feats": {Data: Features(2), Fields: []Field{
		{Name: "kind", Kind: KindStr},
		{Name: "conf", Kind: KindFloat},
	}},
}

// keyedRows replays the appends that wrote testdata/keyed_rows.db, a
// store whose rows are in the keyed form: the id, then every entry as a
// key, a kind and a value. The rows are builders, in append order, each
// carrying the id its append drew from a fresh database's allocator
// (from id, so later appends continue the sequence). "dets" rows hold
// every declared field, -0, NaN and infinite scores, sometimes a pixel
// payload, and undeclared keys sorting before every declared key
// ("Area"), between them ("m_mid") and after them ("~tag"). Every other
// det is followed by a "feats" row derived from it, with a feature
// payload, and every third of those by a feats row derived from that.
func keyedRows(from PatchID, dets int) []lineageRow {
	var rows []lineageRow
	id := from
	add := func(col string, p *Patch) *Patch {
		id++
		p.ID = id
		rows = append(rows, lineageRow{col, p})
		return p
	}
	scores := []float64{0.5, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Inf(1), 1e-300}
	feats := 0
	for i := 0; i < dets; i++ {
		d := add("dets", &Patch{
			Ref: Ref{Source: fmt.Sprint("cam", i%3), Frame: uint64(i) * 5},
			Meta: Metadata{
				"label": StrV([]string{"car", "bus", "pedestrian", ""}[i%4]),
				"score": FloatV(scores[i%len(scores)]),
				"rank":  IntV(int64(i*37%1009) - 500),
				"emb":   VecV([]float32{float32(i), -1, float32(math.Copysign(0, -1))}),
				"hist":  VecV(make([]float32, i%4)),
				"bbox":  RectV(float64(i%40), 2, float64(i%40+10), 30),
			},
		})
		if i%2 == 0 {
			d.Meta["Area"] = IntV(int64(i * i))
		}
		if i%3 == 1 {
			d.Meta["m_mid"] = StrV(fmt.Sprint("m", i))
		}
		if i%5 == 0 {
			d.Meta["~tag"] = VecV([]float32{float32(i)})
		}
		if i%4 == 0 {
			d.Data = tensor.FromU8([]uint8{1, 2, 3, 4, 5, byte(i)}, 1, 2, 3)
		}
		if i%2 != 0 {
			continue
		}
		parent := d
		for depth := 0; depth < 2; depth++ {
			f := add("feats", &Patch{
				Ref:  Ref{Source: d.Ref.Source, Frame: d.Ref.Frame, Parent: parent.ID},
				Data: tensor.FromF32([]float32{float32(feats), -0.5}, 2),
				Meta: Metadata{
					"kind": StrV(fmt.Sprint("feat", depth)),
					"conf": FloatV(float64(feats%7) / 6),
				},
			})
			if feats%2 == 0 {
				f.Meta["a0"] = IntV(int64(feats))
			}
			if feats%3 == 1 {
				f.Meta["zz"] = StrV("after")
			}
			parent = f
			feats++
			if feats%3 != 0 {
				break
			}
		}
	}
	return rows
}

// TestKeyedStoreReadsIdentically pins the stored row format: a store
// whose rows are all in the keyed form, in the page-file format, is
// imported at its open and reads back exactly what was written. New rows
// land in the same row logs in the positional form, shorter than their
// keyed twins, and after a second reopen, which imports nothing, both
// kinds of row read back alike.
func TestKeyedStoreReadsIdentically(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "keyed_rows.db"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dl.db")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	old := keyedRows(0, 160)
	db := reopenDB(t, path)
	checkLineageRows(t, db, old)
	imported := assertImportedOnce(t, db, nil)

	// Each old row is stored keyed, id first, and the import that
	// copied it into the row log copied those bytes; the codec's
	// encoding of the loaded row is shorter and decodes to the same row.
	for _, r := range old {
		col, err := db.Collection(r.col)
		if err != nil {
			t.Fatal(err)
		}
		stored := storedRows(t, col)[r.p.ID]
		if !bytes.Equal(stored, refMarshal(r.p)) {
			t.Fatalf("row %d: stored %x, want the keyed form %x", r.p.ID, stored, refMarshal(r.p))
		}
		loaded, err := col.Get(r.p.ID)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := col.codec.encode(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if twin[0] != rowMarker || len(twin) >= len(stored) {
			t.Fatalf("row %d: positional twin %x, keyed %x", r.p.ID, twin, stored)
		}
		d := patchDecoder{codec: col.codec}
		again, err := d.decode(r.p.ID, twin)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePatch(loaded, again); err != nil {
			t.Fatalf("row %d: %v", r.p.ID, err)
		}
	}

	added := keyedRows(old[len(old)-1].p.ID, 40)
	for _, r := range added {
		col, err := db.Collection(r.col)
		if err != nil {
			t.Fatal(err)
		}
		p := r.p.Clone()
		p.ID = 0
		if err := col.Append(p); err != nil {
			t.Fatal(err)
		}
		if p.ID != r.p.ID {
			t.Fatalf("append drew id %d, want %d", p.ID, r.p.ID)
		}
	}
	all := append(old, added...)
	checkLineageRows(t, db, all)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = reopenDB(t, path)
	checkLineageRows(t, db, all)
	assertImportedOnce(t, db, imported)
	for _, r := range added {
		col, err := db.Collection(r.col)
		if err != nil {
			t.Fatal(err)
		}
		stored := storedRows(t, col)[r.p.ID]
		want, err := col.codec.encode(r.p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, want) || stored[0] != rowMarker || len(stored) >= len(refMarshal(r.p)) {
			t.Fatalf("new row %d stored %x, want %x, shorter than the keyed %x", r.p.ID, stored, want, refMarshal(r.p))
		}
	}
}
