package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

// lineageSchemas are the collections of testdata/lineage_pairs.db.
var lineageSchemas = map[string]Schema{
	"frames": {Data: Pixels(0, 0), Fields: []Field{
		{Name: "label", Kind: KindStr},
		{Name: "score", Kind: KindFloat},
		{Name: "rank", Kind: KindInt},
		{Name: "emb", Kind: KindVec, VecDim: 4},
		{Name: "bbox", Kind: KindRect},
	}},
	"crops": {Fields: []Field{
		{Name: "label", Kind: KindStr},
		{Name: "score", Kind: KindFloat},
	}},
}

type lineageRow struct {
	col string
	p   *Patch
}

// lineagePairsRows replays the appends that wrote
// testdata/lineage_pairs.db, a store whose rows carry _source and _frame
// among their stored pairs, as Marshal wrote them while it still stored
// what Ref holds. The rows are builders, in append order, each carrying
// the id its append drew from a fresh database's allocator (from id, so
// later appends continue the sequence). "frames" rows hold declared
// label/score/rank/emb/bbox fields, sometimes a pixel payload, and
// undeclared keys sorting before, between and after the lineage keys.
// Every third frame is followed by a "crops" row derived from it, and
// every fourth crop by a crop derived from that crop.
func lineagePairsRows(from PatchID, frames int) []lineageRow {
	var rows []lineageRow
	id := from
	add := func(col string, p *Patch) *Patch {
		id++
		p.ID = id
		rows = append(rows, lineageRow{col, p})
		return p
	}
	crops := 0
	for i := 0; i < frames; i++ {
		frame := uint64(i) * 7
		if i%10 == 9 {
			frame += 1 << 40
		}
		f := add("frames", &Patch{
			Ref: Ref{Source: fmt.Sprint("cam", i%3), Frame: frame},
			Meta: Metadata{
				"label": StrV([]string{"car", "bus", "pedestrian", ""}[i%4]),
				"score": FloatV(float64(i%17) / 16),
				"rank":  IntV(int64(i*37%1009) - 500),
				"emb":   VecV([]float32{float32(i), -1, 0.5, float32(i % 5)}),
				"bbox":  RectV(float64(i%40), 2, float64(i%40+10), 30),
			},
		})
		if i%2 == 0 {
			f.Meta["Area"] = IntV(int64(i * i)) // sorts before _frame
		}
		if i%3 == 1 {
			f.Meta["_g"] = StrV(fmt.Sprint("g", i)) // between _frame and _source
		}
		if i%5 == 0 {
			f.Meta["~tag"] = VecV([]float32{float32(i)}) // after every other key
		}
		if i%4 == 0 {
			f.Data = tensor.FromU8([]uint8{1, 2, 3, 4, 5, byte(i)}, 1, 2, 3)
		}
		if i%3 != 0 {
			continue
		}
		parent := f
		for depth := 0; depth < 2; depth++ {
			parent = add("crops", &Patch{
				Ref: Ref{Source: f.Ref.Source, Frame: f.Ref.Frame, Parent: parent.ID},
				Meta: Metadata{
					"label": StrV(fmt.Sprint("crop", depth)),
					"score": FloatV(float64(crops%9) / 8),
					"conf":  IntV(int64(crops)),
				},
			})
			crops++
			if crops%4 != 0 {
				break
			}
		}
	}
	return rows
}

// committedForm is the row a builder commits as.
func committedForm(p *Patch) *Patch {
	c := p.Clone()
	c.Seal(metaPairs(c.Meta))
	return c
}

// checkLineageRows checks that db holds want, row for row: Get returns
// each row as written, every collection loads in ascending id order, and
// each derived row's parent resolves through GetPatch.
func checkLineageRows(t *testing.T, db *DB, want []lineageRow) {
	t.Helper()
	byCol := map[string][]*Patch{}
	for _, r := range want {
		c := committedForm(r.p)
		byCol[r.col] = append(byCol[r.col], c)
		col, err := db.Collection(r.col)
		if err != nil {
			t.Fatal(err)
		}
		got, err := col.Get(c.ID)
		if err != nil {
			t.Fatalf("row %d: %v", c.ID, err)
		}
		if err := samePatch(got, c); err != nil {
			t.Fatalf("row %d: %v", c.ID, err)
		}
		if src, _ := got.Get("_source"); src.Str() != c.Ref.Source {
			t.Fatalf("row %d: _source %q, Ref.Source %q", c.ID, src.Str(), c.Ref.Source)
		}
		if frame, _ := got.Get("_frame"); frame.Int() != int64(c.Ref.Frame) {
			t.Fatalf("row %d: _frame %d, Ref.Frame %d", c.ID, frame.Int(), c.Ref.Frame)
		}
		if c.Ref.Parent != 0 {
			if parent, err := db.GetPatch(c.Ref.Parent); err != nil || parent.ID != c.Ref.Parent {
				t.Fatalf("row %d: parent %d resolves to %v, %v", c.ID, c.Ref.Parent, parent, err)
			}
		}
	}
	for name, rows := range byCol {
		col, err := db.Collection(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := col.Patches()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("%s: loaded %d rows, wrote %d", name, len(got), len(rows))
		}
		for i := range got {
			if err := samePatch(got[i], rows[i]); err != nil {
				t.Fatalf("%s row %d of the id-ordered load: %v", name, i, err)
			}
		}
	}
}

// TestStoreWithLineagePairsReadsIdentically pins the row format: a store
// written while Marshal stored each row's _source and _frame among its
// pairs reopens and reads back exactly what was written, takes new rows
// in the collection's stored form, without those pairs, beside the old
// ones, and reads both alike after a second reopen.
func TestStoreWithLineagePairsReadsIdentically(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "lineage_pairs.db"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dl.db")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	old := lineagePairsRows(0, 240)
	db := reopenDB(t, path)
	checkLineageRows(t, db, old)

	// The old rows' bytes carry the lineage pairs; a new-format twin of
	// each leaves them out, and still serializes as the loaded row does.
	for _, r := range old {
		col, err := db.Collection(r.col)
		if err != nil {
			t.Fatal(err)
		}
		stored := storedRows(t, col)[r.p.ID]
		loaded, err := col.Get(r.p.ID)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := UnmarshalPatch(r.p.ID, r.p.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if len(stored) <= len(twin.Marshal()) || !bytes.Contains(stored, []byte(sourceKey)) {
			t.Fatalf("row %d: stored %x carries no lineage pairs", r.p.ID, stored)
		}
		if !samePatchBytes(loaded, twin) {
			t.Fatalf("row %d: the old-format row and its new-format twin serialize differently", r.p.ID)
		}
		if err := samePatch(loaded, twin); err != nil {
			t.Fatalf("row %d: %v", r.p.ID, err)
		}
	}

	added := lineagePairsRows(old[len(old)-1].p.ID, 60)
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
		if !bytes.Equal(stored, want) || bytes.Contains(stored, []byte(sourceKey)) {
			t.Fatalf("new row %d stored %x, want %x", r.p.ID, stored, want)
		}
	}
}
