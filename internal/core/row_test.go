package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/kv"
	"repro/internal/tensor"
)

// metaPairs lists m's entries but the lineage keys, which sealing drops,
// in an array of exactly their number: what Seal takes to commit a
// builder's metadata without a schema.
func metaPairs(m Metadata) []Pair {
	pairs := make([]Pair, 0, len(m))
	for k, v := range m {
		if k != frameKey && k != sourceKey {
			pairs = append(pairs, Pair{k, v})
		}
	}
	return pairs
}

// rangePairs lists the entries p's Range yields, in its order.
func rangePairs(p *Patch) []Pair {
	var out []Pair
	for k, v := range p.Range {
		out = append(out, Pair{k, v})
	}
	return out
}

// sameValue compares two values bit for bit, so -0 differs from +0 and
// a NaN equals itself.
func sameValue(a, b Value) bool {
	av, bv := a.Vec(), b.Vec()
	if a.Kind != b.Kind || a.Int() != b.Int() || math.Float64bits(a.Float()) != math.Float64bits(b.Float()) ||
		a.Str() != b.Str() || len(av) != len(bv) {
		return false
	}
	for i := range av {
		if math.Float32bits(av[i]) != math.Float32bits(bv[i]) {
			return false
		}
	}
	return true
}

// samePatch reports whether a and b carry the same id, lineage, payload
// and metadata, and answer Get alike for every key either ranges over.
func samePatch(a, b *Patch) error {
	if a.ID != b.ID || a.Ref != b.Ref {
		return fmt.Errorf("identity %d %+v, %d %+v", a.ID, a.Ref, b.ID, b.Ref)
	}
	if (a.Data == nil) != (b.Data == nil) || (a.Data != nil && !bytes.Equal(a.Data.Marshal(), b.Data.Marshal())) {
		return fmt.Errorf("payloads differ")
	}
	pa, pb := rangePairs(a), rangePairs(b)
	if len(pa) != len(pb) {
		return fmt.Errorf("%d entries, %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Key != pb[i].Key || !sameValue(pa[i].Value, pb[i].Value) {
			return fmt.Errorf("entry %d: %q=%+v, %q=%+v", i, pa[i].Key, pa[i].Value, pb[i].Key, pb[i].Value)
		}
		va, oka := a.Get(pa[i].Key)
		vb, okb := b.Get(pa[i].Key)
		if !oka || !okb || !sameValue(va, vb) || !sameValue(va, pa[i].Value) {
			return fmt.Errorf("Get(%q): %+v %v, %+v %v", pa[i].Key, va, oka, vb, okb)
		}
	}
	for _, k := range []string{"", "missing", "_frame0", "_sourc"} {
		va, oka := a.Get(k)
		vb, okb := b.Get(k)
		if oka != okb || !sameValue(va, vb) {
			return fmt.Errorf("Get(%q): %+v %v, %+v %v", k, va, oka, vb, okb)
		}
	}
	return nil
}

// fuzzFields declares a field of every kind a row stores by position:
// FuzzUnmarshalPatch decodes under them as well as schema-free.
var fuzzFields = []Field{
	{Name: "i", Kind: KindInt},
	{Name: "f", Kind: KindFloat},
	{Name: "s", Kind: KindStr},
	{Name: "v", Kind: KindVec, VecDim: 2},
	{Name: "w", Kind: KindVec},
	{Name: "r", Kind: KindRect},
}

// FuzzUnmarshalPatch: arbitrary bytes stored under id 1 decode, schema-
// free and under fuzzFields, to an error, never a panic, and whatever
// decodes is a committed row whose encoding decodes to an equal row and
// encodes again to the same bytes. The seeds hold rows in the keyed and
// the positional form, with and without a value for every fuzzFields.
func FuzzUnmarshalPatch(f *testing.F) {
	declared := newRowCodec(Schema{Fields: fuzzFields})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		p := randomPatch(rng)
		p.ID = 1
		f.Add(refMarshal(p))
		f.Add(p.Marshal())
		if p.Meta == nil {
			p.Meta = Metadata{}
		}
		p.Meta["i"] = IntV(int64(-i))
		p.Meta["f"] = FloatV([]float64{math.Copysign(0, -1), math.NaN(), 0.25}[i%3])
		p.Meta["s"] = StrV(fmt.Sprint("s", i))
		p.Meta["v"] = VecV([]float32{float32(i), -1})
		p.Meta["w"] = VecV(make([]float32, i))
		p.Meta["r"] = RectV(0, 1, 2, float64(i))
		f.Add(refMarshal(p))
		raw, err := declared.encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, c := range []*rowCodec{&schemaFree, declared} {
			d := patchDecoder{codec: c}
			p, err := d.decode(1, raw)
			if err != nil {
				continue
			}
			if !p.sealed() || p.Meta != nil || p.ID != 1 {
				t.Fatalf("decoded a builder or another id: %+v", p)
			}
			again, err := c.encode(p)
			if err != nil {
				t.Fatalf("decoded row does not encode under %d fields: %v", len(c.fields), err)
			}
			q, err := d.decode(1, again)
			if err != nil {
				t.Fatalf("re-encoded %x does not decode: %v", again, err)
			}
			if err := samePatch(p, q); err != nil {
				t.Fatalf("%x decodes to a different row: %v", again, err)
			}
			if b, err := c.encode(q); err != nil || !bytes.Equal(b, again) {
				t.Fatalf("second encoding %x (%v), first %x", b, err, again)
			}
		}
	})
}

// TestReopenParity: rows with declared and undeclared keys on both sides
// of the lineage keys, vec and rect values, -0 and NaN floats and pixel
// payloads answer Get and Range the same before and after a reopen, and
// the collection's codec encodes each row to exactly the bytes its bucket
// stores.
func TestReopenParity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dl.db")
	db, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	schema := Schema{Data: Pixels(0, 0), Fields: []Field{
		{Name: "label", Kind: KindStr},
		{Name: "score", Kind: KindFloat},
		{Name: "emb", Kind: KindVec, VecDim: 3},
	}}
	col, err := db.CreateCollection("rows", schema)
	if err != nil {
		t.Fatal(err)
	}
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Inf(-1), 0.25}
	for i := 0; i < 240; i++ {
		p := &Patch{
			Ref: Ref{Source: []string{"cam0", "cam1"}[i%2], Frame: uint64(i * 3), Parent: PatchID(i / 2)},
			Meta: Metadata{
				"label": StrV([]string{"car", "bus", ""}[i%3]),
				"score": FloatV(floats[i%len(floats)]),
				"emb":   VecV([]float32{float32(math.Copysign(0, -1)), float32(math.NaN()), float32(i)}),
			},
		}
		if i%2 == 0 {
			p.Meta["Area"] = RectV(0, 1, float64(i), 4) // sorts before _frame
			p.Meta["_g"] = IntV(int64(-i))              // between _frame and _source
		}
		if i%3 == 0 {
			p.Meta["~tag"] = StrV(fmt.Sprint("t", i)) // after every other key
		}
		if i%5 == 0 {
			p.Meta["_frame"] = IntV(-1) // a stale stamp: sealing drops it
		}
		if i%4 == 0 {
			p.Data = tensor.FromU8([]uint8{1, 2, 3, 4, 5, byte(i)}, 1, 2, 3)
		}
		if err := col.Append(p); err != nil {
			t.Fatal(err)
		}
		if p.Meta != nil || !p.sealed() {
			t.Fatalf("row %d is not sealed after Append", i)
		}
	}
	before, err := col.Patches()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if col, err = db.Collection("rows"); err != nil {
		t.Fatal(err)
	}
	after, err := col.Patches()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("reopened %d rows, committed %d", len(after), len(before))
	}
	logged := storedRows(t, col)
	for i, p := range after {
		if err := samePatch(before[i], p); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if v, _ := p.Get("_frame"); v.Int() != int64(p.Ref.Frame) {
			t.Fatalf("row %d: _frame %d, Ref.Frame %d", i, v.Int(), p.Ref.Frame)
		}
		stored := logged[p.ID]
		for _, q := range []*Patch{p, before[i]} {
			if raw, err := col.codec.encode(q); err != nil || !bytes.Equal(raw, stored) {
				t.Fatalf("row %d encodes to bytes its row log does not hold (%v)", i, err)
			}
		}
	}
}

// committedRowBytes appends rows builders to a new collection of
// fields, flushes it, and returns the live heap each committed row
// costs, the kv pages that held its bytes until the flush included.
func committedRowBytes(t *testing.T, fields []Field, rows int, meta func(i int, rng *rand.Rand) Metadata) float64 {
	t.Helper()
	db := openDB(t)
	col, err := db.CreateCollection("bench", Schema{Data: Pixels(0, 0), Fields: fields})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	rng := rand.New(rand.NewSource(1))
	start := heap()
	for i := 0; i < rows; i++ {
		p := &Patch{Ref: Ref{Source: "bench", Frame: uint64(i)}, Meta: meta(i, rng)}
		if err := col.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	perRow := float64(heap()-start) / float64(rows)
	runtime.KeepAlive(col)
	return perRow
}

// fixtureFields are the benchmark fixture's three declared fields.
var fixtureFields = []Field{
	{Name: "label", Kind: KindStr},
	{Name: "score", Kind: KindFloat},
	{Name: "rank", Kind: KindInt},
}

// fixtureMeta is a fixture-shaped row's metadata.
func fixtureMeta(labels []string, rng *rand.Rand) Metadata {
	return Metadata{
		"label": StrV(labels[rng.Intn(len(labels))]),
		"score": FloatV(rng.Float64()),
		"rank":  IntV(int64(rng.Intn(1009))),
	}
}

// TestCommittedRowBytes: a committed fixture-shaped row (three declared
// fields, lineage from Ref) costs at most 160 bytes of live heap once the
// rows are flushed: a Patch, three 16-byte slots for its declared values
// and its pointer in the row cache. Before rows held their declared
// values by position it cost 216.
func TestCommittedRowBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const rows, limit = 20000, 160
	labels := make([]string, 16)
	for i := range labels {
		labels[i] = fmt.Sprintf("cls%02d", i)
	}
	perRow := committedRowBytes(t, fixtureFields, rows, func(_ int, rng *rand.Rand) Metadata { return fixtureMeta(labels, rng) })
	t.Logf("%.0f B of live heap per committed row", perRow)
	if perRow > limit {
		t.Fatalf("%.0f B of live heap per committed row, want at most %d", perRow, limit)
	}
}

// TestCommittedVectorRowBytes: a committed row of the ingest_live shape
// (the fixture's fields and a declared 32-d embedding) costs at most 176
// bytes of live heap besides its vector's own 128-byte array. Before rows
// held their declared values by position it cost 248.
func TestCommittedVectorRowBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const rows, dim, limit = 20000, 32, 176
	labels := make([]string, 16)
	for i := range labels {
		labels[i] = fmt.Sprintf("cls%02d", i)
	}
	fields := append(slices.Clone(fixtureFields), Field{Name: "emb", Kind: KindVec, VecDim: dim})
	perRow := committedRowBytes(t, fields, rows, func(_ int, rng *rand.Rand) Metadata {
		m := fixtureMeta(labels, rng)
		emb := make([]float32, dim)
		for j := range emb {
			emb[j] = rng.Float32()
		}
		m["emb"] = VecV(emb)
		return m
	}) - 4*dim
	t.Logf("%.0f B of live heap per committed row besides its vector", perRow)
	if perRow > limit {
		t.Fatalf("%.0f B of live heap per committed row besides its vector, want at most %d", perRow, limit)
	}
}

// TestStoredRowBytes: a stored fixture-shaped row (three declared
// fields, source "bench") carries its lineage once, in Ref, its id only
// as a delta in its row log's framing and its declared fields by
// position, so it takes at most 29 bytes, and a 66,667-row shard of them
// takes at most 32 bytes a row in its row log, framing and block
// headers included. Both are counts: they do not depend on the host.
func TestStoredRowBytes(t *testing.T) {
	const rows, rowLimit, logLimit = 66667, 29, 32
	db := openDB(t)
	col, err := db.CreateCollection("bench", Schema{Data: Pixels(0, 0), Fields: []Field{
		{Name: "label", Kind: KindStr},
		{Name: "score", Kind: KindFloat},
		{Name: "rank", Kind: KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		p := &Patch{Ref: Ref{Source: "bench", Frame: uint64(i)}, Meta: Metadata{
			"label": StrV(fmt.Sprintf("cls%02d", rng.Intn(16))),
			"score": FloatV(rng.Float64()),
			"rank":  IntV(int64(rng.Intn(1009))),
		}}
		if err := col.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	maxRow, total := 0, 0
	stored := storedRows(t, col)
	for _, v := range stored {
		maxRow, total = max(maxRow, len(v)), total+len(v)
	}
	if len(stored) != rows {
		t.Fatalf("the row log holds %d rows, want %d", len(stored), rows)
	}
	st, err := os.Stat(rowLogPath(db.path, col.logKey))
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(st.Size()) / rows
	t.Logf("%.2f B per stored row (at most %d), %.2f B per row in the log", float64(total)/rows, maxRow, perRow)
	if maxRow > rowLimit {
		t.Errorf("a stored row takes %d B, want at most %d", maxRow, rowLimit)
	}
	if perRow > logLimit {
		t.Errorf("%d rows take %.2f B each in the row log, want at most %d", rows, perRow, logLimit)
	}
}

// TestReopenedLoadCachesNoLeaf: a 20k-row collection stored in the
// page-file format is imported at the open, so the database keeps no
// page of the file: the rows read as stored, and the directory holds the
// catalog and their row log, not the page file.
func TestReopenedLoadCachesNoLeaf(t *testing.T) {
	const rows = 20000
	ps := make([]*Patch, rows)
	for i := range ps {
		ps[i] = &Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Meta: Metadata{
			"label": StrV(fmt.Sprintf("cls%02d", i%16)),
			"score": FloatV(float64(i%1000) / 1000),
			"rank":  IntV(int64(i % 1009)),
		}}
	}
	assertImported(t, "rows", Schema{Fields: fixtureFields}, ps)
}

// TestReopenedLoadCachesNoOverflowPage: rows whose payloads overflow the
// leaf into chains of pages import as the others do.
func TestReopenedLoadCachesNoOverflowPage(t *testing.T) {
	const rows = 500
	rng := rand.New(rand.NewSource(1))
	ps := make([]*Patch, rows)
	for i := range ps {
		px := tensor.NewU8(32, 32, 3) // 3 KiB: past the 1 KiB inline limit
		rng.Read(px.U8s)
		ps[i] = &Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Data: px, Meta: Metadata{
			"label": StrV(fmt.Sprintf("cls%02d", i%16)),
			"score": FloatV(float64(i) / rows),
			"rank":  IntV(int64(i)),
		}}
	}
	assertImported(t, "frames", Schema{Data: Pixels(32, 32), Fields: fixtureFields}, ps)
}

// writePageFormat writes a page file at path holding the collection name
// as the page-file format stored it: each of rows, builders that take
// ids 1, 2, ... in order, encoded under its id's 8-byte key in the bucket
// col.<name>, and a descriptor that names no row log. Beside it lie what
// older stores left behind and nothing reads: a colseg.<name> bucket and
// an index descriptor.
func writePageFormat(t *testing.T, path, name string, schema Schema, rows []*Patch) {
	t.Helper()
	st, err := kv.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	put := func(bucket, key string, val []byte) {
		b, err := st.Bucket(bucket)
		if err == nil {
			err = b.Put([]byte(key), val)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	codec := newRowCodec(schema)
	for i, p := range rows {
		p.ID = PatchID(i + 1)
		raw, err := codec.encode(p)
		if err != nil {
			t.Fatal(err)
		}
		put("col."+name, string(kv.U64Key(uint64(p.ID))), raw)
		put("colseg."+name, fmt.Sprint(i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	desc, err := json.Marshal(colDesc{Name: name, Schema: schema, Count: len(rows), Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	put("sys.catalog", "col."+name, desc)
	put("sys.catalog", "idx."+name+".label.hash", []byte("{}"))
	put("sys.catalog", "nextid", kv.U64Key(uint64(len(rows))))
	put("sys.catalog", "nextver", kv.U64Key(1))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertImported writes rows as a page-format collection name of schema
// and reopens the database, which imports it: the rows read as written,
// and the directory holds the catalog and one row log.
func assertImported(t *testing.T, name string, schema Schema, rows []*Patch) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dl.db")
	writePageFormat(t, path, name, schema, rows)
	db := reopenDB(t, path)
	assertCatalogAndLogs(t, db, 1)
	col, err := db.Collection(name)
	if err != nil {
		t.Fatal(err)
	}
	after, err := col.Patches()
	if err != nil || len(after) != len(rows) {
		t.Fatalf("reopened %d of %d rows, %v", len(after), len(rows), err)
	}
	for i := range after {
		if err := samePatch(committedForm(rows[i]), after[i]); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
}

// BenchmarkPatchGet reads every field of 50k committed rows through Get:
// the three fixture fields, held by position, and one undeclared field.
func BenchmarkPatchGet(b *testing.B) {
	const rows = 50_000
	schema := Schema{Fields: fixtureFields}
	s := newSealer(schema, newRowCodec(schema), rows)
	rng := rand.New(rand.NewSource(1))
	labels := []string{"car", "bus", "bike", "truck"}
	ps := make([]*Patch, rows)
	for i := range ps {
		m := fixtureMeta(labels, rng)
		m["extra"] = IntV(int64(i))
		ps[i] = &Patch{Ref: Ref{Source: "bench", Frame: uint64(i)}}
		s.Seal(ps[i], metaPairs(m))
	}
	fields := []string{"label", "score", "rank", "extra"}
	for b.Loop() {
		for _, p := range ps {
			for _, f := range fields {
				if _, ok := p.Get(f); !ok {
					b.Fatalf("row %d lacks %s", p.Ref.Frame, f)
				}
			}
		}
	}
}
