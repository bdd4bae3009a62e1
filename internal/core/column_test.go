package core

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/exec"
)

// columnTestSchema declares scalar fields of every columnar kind, each
// a column. The other fields columnPatch sets stay undeclared, so rows
// can omit them or vary their kind, and they have no column: declared
// fields must be present on every patch by schema validation.
func columnTestSchema() Schema {
	return Schema{
		Data: Pixels(0, 0),
		Fields: []Field{
			{Name: "label", Kind: KindStr},
			{Name: "score", Kind: KindFloat},
			{Name: "rank", Kind: KindInt},
			{Name: "clustered", Kind: KindInt},
		},
	}
}

// columnPatch generates deterministic row i. Every third row carries the
// undeclared "sparse" int field (missing elsewhere); the undeclared
// "mixed" alternates kinds; the declared "clustered" is block-clustered
// so zone maps genuinely prune.
func columnPatch(i int) *Patch {
	p := &Patch{
		Ref: Ref{Source: "col", Frame: uint64(i)},
		Meta: Metadata{
			"label": StrV([]string{"car", "bus", "bike", "truck", "van"}[i%5]),
			"score": FloatV(float64(i%97) / 10),
			"rank":  IntV(int64(i % 13)),
		},
	}
	if i%3 == 0 {
		p.Meta["sparse"] = IntV(int64(i % 7))
	}
	if i%2 == 0 {
		p.Meta["mixed"] = IntV(int64(i))
	} else {
		p.Meta["mixed"] = StrV("odd")
	}
	p.Meta["clustered"] = IntV(int64(i / ColumnBlockSize)) // constant per block
	return p
}

func columnCollection(t testing.TB, rows int) (*DB, *Collection) {
	t.Helper()
	return columnCollectionAt(t, filepath.Join(t.TempDir(), "dl.db"), rows)
}

// columnCollectionAt is columnCollection in the database file at path,
// for tests that reopen it.
func columnCollectionAt(t testing.TB, path string, rows int) (*DB, *Collection) {
	t.Helper()
	db := reopenDB(t, path)
	col, err := db.CreateCollection("col.dets", columnTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := col.Append(columnPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	return db, col
}

// reopenDB opens the database file at path, closing it when the test
// ends.
func reopenDB(t testing.TB, path string) *DB {
	t.Helper()
	db, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// schemaOnly is a collection with columnTestSchema and no database
// behind it: the collection of every snapshotOf whose rows it
// validates.
var schemaOnly = &Collection{schema: columnTestSchema(), codec: newRowCodec(columnTestSchema())}

// snapshotOf is a snapshot of rows at version ver with no database:
// enough for a store or an index built in isolation. Its schema is
// columnTestSchema when every row holds its fields, and otherwise
// declares the fields every row holds with one kind (a vector of any
// length). Its row table holds the rows, a builder sealed as a copy, so
// rows are left as they are.
func snapshotOf(rows []*Patch, ver uint64) Snapshot {
	col, fits := schemaOnly, true
	sealed := make([]*Patch, len(rows))
	for i, p := range rows {
		if sealed[i] = p; !p.sealed() {
			sealed[i] = &Patch{ID: p.ID, Ref: p.Ref, Data: p.Data}
			sealed[i].Seal(metaPairs(p.Meta))
		}
		fits = fits && col.schema.ValidatePatch(sealed[i]) == nil
	}
	if !fits {
		schema := commonSchema(sealed)
		col = &Collection{schema: schema, codec: newRowCodec(schema)}
	}
	w := tableWriter{t: newRowTable(col.codec), owned: true}
	for _, p := range sealed {
		decl, pairs, _ := col.codec.split(p, nil, nil)
		w.put(p, decl, slices.Clone(pairs))
	}
	return Snapshot{col: col, tab: w.t, n: w.n, version: ver}
}

// commonSchema declares the fields every one of rows holds with one
// kind, in the first row's key order.
func commonSchema(rows []*Patch) Schema {
	var s Schema
	if len(rows) == 0 {
		return s
	}
	for k, v := range rows[0].Range {
		if k == frameKey || k == sourceKey {
			continue
		}
		all := true
		for _, p := range rows[1:] {
			if w, ok := p.Get(k); !ok || w.Kind != v.Kind {
				all = false
				break
			}
		}
		if all {
			s.Fields = append(s.Fields, Field{Name: k, Kind: v.Kind})
		}
	}
	return s
}

// cut is s's first n rows at version ver: a snapshot s extends.
func cut(s Snapshot, n int, ver uint64) Snapshot {
	return Snapshot{col: s.col, tab: s.tab, n: n, version: ver}
}

// assertRowScanFallback checks that fields have no column in snap's
// store and that a column-scan Select on each returns the row scan's
// selection, reported as the row scan: for equality and range
// predicates, and as a top-k order-by. snap belongs to a collection in a
// database.
func assertRowScanFallback(t *testing.T, snap Snapshot, fields ...string) {
	t.Helper()
	cs, err := snap.col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, f := range fields {
		if _, ok := cs.Column(f); ok {
			t.Fatalf("field %s has a column", f)
		}
		for _, q := range []struct {
			pred Pred
			keep Keep
		}{
			{Pred{Field: f, V: IntV(0)}, Keep{}},
			{Pred{Field: f, V: StrV("odd")}, Keep{}},
			{Pred{Field: f, Range: true, Lo: 0, Hi: 7}, Keep{}},
			{Pred{Field: "rank", Range: true, Lo: 0, Hi: 13}, Keep{Kind: KeepTop, N: 17, Field: f}},
			{Pred{Field: "rank", Range: true, Lo: 0, Hi: 13}, Keep{Kind: KeepTop, N: 17, Field: f, Desc: true}},
		} {
			rows, err := snap.Select(ctx, q.pred, FilterScan, q.keep)
			if err != nil {
				t.Fatal(err)
			}
			cols, err := snap.Select(ctx, q.pred, FilterColumnScan, q.keep)
			if err != nil {
				t.Fatal(err)
			}
			if q.keep.Kind == KeepTop {
				// The filter, on a column, matches every row; the
				// order-by's rows compare.
				want := referenceTopK(snap.Patches(), f, q.keep.Desc, q.keep.N)
				if !idsEqual(patchIDs(want), patchIDs(snap.Materialize(cols.Sel))) {
					t.Fatalf("top-k by %s (desc=%v) diverged from stable sort", f, q.keep.Desc)
				}
			} else if cols.Method != FilterScan {
				t.Fatalf("%+v on %s ran as %v, want the row scan", q.pred, f, cols.Method)
			}
			if rows.N != cols.N || !slices.Equal(rows.Sel, cols.Sel) {
				t.Fatalf("%+v keep %+v on %s: column scan %d rows != row scan %d rows (or order differs)",
					q.pred, q.keep, f, cols.N, rows.N)
			}
		}
	}
}

func patchIDs(ps []*Patch) []PatchID {
	ids := make([]PatchID, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	return ids
}

func idsEqual(a, b []PatchID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestColumnarEqMatrix is the golden equivalence matrix: for every
// columnar kind (str/int/float) and the undeclared fields that fall back
// to the row scan, the columnar filter must return exactly the row
// scan's patches in exactly its order — and where an index applies, the
// same set again.
func TestColumnarEqMatrix(t *testing.T) {
	const rows = 3 * ColumnBlockSize / 2 // spans a block boundary
	db, col := columnCollection(t, rows)

	cases := []struct {
		field string
		vals  []Value
	}{
		{"label", []Value{StrV("car"), StrV("van"), StrV("tricycle")}}, // last: not in dictionary
		{"rank", []Value{IntV(0), IntV(12), IntV(99)}},                 // last: pruned by every zone map
		{"score", []Value{FloatV(0), FloatV(9.6), FloatV(123.4)}},
		{"sparse", []Value{IntV(0), IntV(6), IntV(42)}},   // undeclared, often missing: falls back
		{"clustered", []Value{IntV(0), IntV(1), IntV(5)}}, // block-clustered
		{"mixed", []Value{IntV(2), StrV("odd")}},          // undeclared, two kinds: falls back
	}
	for _, tc := range cases {
		for _, v := range tc.vals {
			rowPath, err := db.ExecuteFilter(col, tc.field, v, FilterScan)
			if err != nil {
				t.Fatalf("%s row scan: %v", tc.field, err)
			}
			colPath, err := db.ExecuteFilter(col, tc.field, v, FilterColumnScan)
			if err != nil {
				t.Fatalf("%s column scan: %v", tc.field, err)
			}
			if !idsEqual(patchIDs(rowPath), patchIDs(colPath)) {
				t.Fatalf("field %s value %+v: columnar %d rows != row scan %d rows (or order differs)",
					tc.field, v, len(colPath), len(rowPath))
			}
		}
	}

	// Index agreement on the str field (order differs between access
	// paths only if the index is broken: both emit in ascending ID
	// order for a single-collection ingest).
	if _, err := db.BuildIndex(col, "label", IdxSorted); err != nil {
		t.Fatal(err)
	}
	idxPath, err := db.ExecuteFilter(col, "label", StrV("bus"), FilterIndex)
	if err != nil {
		t.Fatal(err)
	}
	colPath, _ := db.ExecuteFilter(col, "label", StrV("bus"), FilterColumnScan)
	if !idsEqual(patchIDs(idxPath), patchIDs(colPath)) {
		t.Fatalf("index probe %d rows != columnar %d rows", len(idxPath), len(colPath))
	}
}

// TestColumnarRangeMatrix pins FilterRangeStats against the row
// predicate; an undeclared field has no column and its range runs as the
// row scan.
func TestColumnarRangeMatrix(t *testing.T) {
	const rows = ColumnBlockSize + 37
	_, col := columnCollection(t, rows)
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := col.Patches()
	for _, tc := range []struct {
		field  string
		lo, hi float64
	}{
		{"score", 1.5, 4.25},
		{"score", -10, 0.05},
		{"score", 50, 40}, // empty interval
		{"rank", 3, 7},
		{"rank", 100, 200}, // pruned everywhere
		{"label", 0, 10},   // string column: never matches, like AsFloat=NaN
	} {
		sel, _, ok := cs.FilterRangeStats(tc.field, tc.lo, tc.hi)
		if !ok {
			t.Fatalf("field %s lost its column", tc.field)
		}
		pred := Pred{Field: tc.field, Range: true, Lo: tc.lo, Hi: tc.hi}
		var want []*Patch
		for _, p := range snap {
			if pred.Match(p) {
				want = append(want, p)
			}
		}
		if !idsEqual(patchIDs(want), patchIDs(cs.Materialize(sel))) {
			t.Fatalf("range %s [%g,%g): columnar %d != row %d",
				tc.field, tc.lo, tc.hi, len(sel), len(want))
		}
	}
	if _, _, ok := cs.FilterRangeStats("sparse", 0, 7); ok {
		t.Fatal("undeclared sparse has a column")
	}
	assertRowScanFallback(t, cs.at, "sparse", "mixed")
}

// TestColumnarTopKGolden: the columnar heap must reproduce the stable
// sort's order exactly, including ties (low-cardinality rank),
// ascending and descending, across k values straddling the input size.
// The undeclared sparse field, missing from most rows, has no column:
// its top-k orders the rows themselves.
func TestColumnarTopKGolden(t *testing.T) {
	const rows = 2*ColumnBlockSize + 11
	_, col := columnCollection(t, rows)
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := col.Patches()
	for _, field := range []string{"rank", "score", "label", "clustered"} {
		for _, desc := range []bool{false, true} {
			for _, k := range []int{0, 1, 7, 100, rows, rows + 5} {
				top, ok := cs.TopK(nil, field, desc, k)
				if !ok {
					t.Fatalf("field %s lost its column", field)
				}
				want := referenceTopK(snap, field, desc, k)
				if !idsEqual(patchIDs(want), patchIDs(cs.Materialize(top))) {
					t.Fatalf("topk(%s, desc=%v, k=%d) diverged from stable sort", field, desc, k)
				}
			}
		}
	}
	if _, ok := cs.TopK(nil, "sparse", false, 7); ok {
		t.Fatal("undeclared sparse has a column")
	}
	assertRowScanFallback(t, cs.at, "sparse")
}

// referenceTopK is the top-k a stable sort defines: a copy of ps sorted
// stably by CompareBy, trimmed to k. Inputs with NaN use heapTopK.
func referenceTopK(ps []*Patch, field string, desc bool, k int) []*Patch {
	sorted := slices.Clone(ps)
	slices.SortStableFunc(sorted, func(a, b *Patch) int { return CompareBy(a, b, field, desc) })
	return sorted[:max(0, min(k, len(sorted)))]
}

// TestColumnarTopKSelected: top-k over a filter's selection list equals
// filtering then sorting the survivors.
func TestColumnarTopKSelected(t *testing.T) {
	const rows = ColumnBlockSize + 200
	_, col := columnCollection(t, rows)
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	sel, _, ok := cs.FilterEqStats("label", StrV("bike"))
	if !ok {
		t.Fatal("label lost its column")
	}
	top, ok := cs.TopK(sel, "score", true, 9)
	if !ok {
		t.Fatal("score lost its column")
	}
	want := referenceTopK(cs.Materialize(sel), "score", true, 9)
	if !idsEqual(patchIDs(want), patchIDs(cs.Materialize(top))) {
		t.Fatal("selected topk diverged from filter + stable sort")
	}
}

// TestColumnarZoneMapPruning: a block-clustered predicate must touch
// only matching blocks — verified through the all-pruned case returning
// instantly-empty and the per-block distinct-set case.
func TestColumnarZoneMapPruning(t *testing.T) {
	const rows = 4 * ColumnBlockSize
	_, col := columnCollection(t, rows)
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	c, ok := cs.Column("clustered")
	if !ok {
		t.Fatal("clustered lost its column")
	}
	if c.Blocks() != 4 {
		t.Fatalf("blocks = %d, want 4", c.Blocks())
	}
	// Every row of block 2 and only block 2.
	sel, _, _ := cs.FilterEqStats("clustered", IntV(2))
	if len(sel) != ColumnBlockSize {
		t.Fatalf("clustered==2 matched %d rows, want %d", len(sel), ColumnBlockSize)
	}
	if int(sel[0]) != 2*ColumnBlockSize || int(sel[len(sel)-1]) != 3*ColumnBlockSize-1 {
		t.Fatalf("selection [%d, %d] not confined to block 2", sel[0], sel[len(sel)-1])
	}
	// All-pruned: no zone map admits 99.
	if sel, _, _ := cs.FilterEqStats("clustered", IntV(99)); len(sel) != 0 {
		t.Fatalf("all-pruned predicate matched %d rows", len(sel))
	}
	if sel, _, _ := cs.FilterRangeStats("clustered", 100, 200); len(sel) != 0 {
		t.Fatalf("all-pruned range matched %d rows", len(sel))
	}
}

// TestColumnarVersionInvalidation: appends move the collection version;
// Columns must rebuild so new rows are visible, and stores handed out
// earlier must keep answering over their own snapshot.
func TestColumnarVersionInvalidation(t *testing.T) {
	_, col := columnCollection(t, 100)
	cs1, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	sel1, _, _ := cs1.FilterEqStats("label", StrV("car"))
	n1 := len(sel1)

	for i := 100; i < 200; i++ {
		if err := col.Append(columnPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	cs2, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if cs2.at.version == cs1.at.version {
		t.Fatal("append did not move the column store version")
	}
	sel2, _, _ := cs2.FilterEqStats("label", StrV("car"))
	if len(sel2) != 2*n1 {
		t.Fatalf("rebuilt store matched %d rows, want %d", len(sel2), 2*n1)
	}
	// The old store still answers over its own 100-row snapshot.
	if sel, _, _ := cs1.FilterEqStats("label", StrV("car")); len(sel) != n1 {
		t.Fatalf("stale store changed its answer: %d vs %d", len(sel), n1)
	}
	// A fresh build over the same snapshot agrees.
	snap, err := col.Current()
	if err != nil {
		t.Fatal(err)
	}
	if sel3, _, _ := newColumnStore(snap, nil).FilterEqStats("label", StrV("car")); len(sel3) != 2*n1 {
		t.Fatalf("fresh store matched %d rows, want %d", len(sel3), 2*n1)
	}
}

// TestColumnarEmptyAndAllNull: an empty collection's declared field is
// an empty column, and a field no row holds or one whose kind varies —
// neither declared — has none and runs as the row scan, never a wrong
// answer.
func TestColumnarEmptyAndAllNull(t *testing.T) {
	db := openDB(t)
	col, err := db.CreateCollection("empty", columnTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if sel, st, ok := cs.FilterEqStats("label", StrV("car")); !ok || len(sel) != 0 || st.Blocks != 0 {
		t.Fatalf("empty collection's label: %d rows over %d blocks, ok=%v; want an empty column", len(sel), st.Blocks, ok)
	}
	assertRowScanFallback(t, cs.at, "nosuch", "mixed")
	for i := 0; i < 10; i++ {
		if err := col.Append(columnPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	cs, _ = col.Columns()
	assertRowScanFallback(t, cs.at, "nosuch", "mixed")
}

// TestColumnsAreDeclaredScalars: a store projects exactly the fields its
// schema declares as int, float or string, each in its declared kind, on
// an empty collection too. A declared vector or rect field and an
// undeclared field have no column. Stores racing to project one field
// keep one column.
func TestColumnsAreDeclaredScalars(t *testing.T) {
	schema := Schema{
		Data: Pixels(0, 0),
		Fields: []Field{
			{Name: "label", Kind: KindStr},
			{Name: "score", Kind: KindFloat},
			{Name: "rank", Kind: KindInt},
			{Name: "emb", Kind: KindVec, VecDim: 2},
			{Name: "box", Kind: KindRect},
		},
	}
	scalars, others := schema.Fields[:3], []string{"emb", "box", "extra"}
	db := openDB(t)
	col, err := db.CreateCollection("scalars", schema)
	if err != nil {
		t.Fatal(err)
	}
	check := func(rows int) {
		t.Helper()
		snap, err := col.Current()
		if err != nil {
			t.Fatal(err)
		}
		cs := newColumnStore(snap, nil)
		got := make([][]*Column, 4)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, f := range scalars {
					c, _ := cs.Column(f.Name)
					got[w] = append(got[w], c)
				}
			}()
		}
		wg.Wait()
		for i, f := range scalars {
			c, ok := cs.Column(f.Name)
			if !ok || c.Kind() != f.Kind || c.Blocks() != (rows+ColumnBlockSize-1)/ColumnBlockSize {
				t.Fatalf("%d rows: declared %s: column %v, want kind %v over %d rows", rows, f.Name, ok, f.Kind, rows)
			}
			for w := range got {
				if got[w][i] != c {
					t.Fatalf("%d rows: racing projections of %s kept two columns", rows, f.Name)
				}
			}
		}
		for _, f := range others {
			if _, ok := cs.Column(f); ok {
				t.Fatalf("%d rows: %s has a column", rows, f)
			}
		}
	}
	check(0)
	const rows = ColumnBlockSize + 3
	for i := 0; i < rows; i++ {
		err := col.Append(&Patch{
			Ref: Ref{Source: "scalars", Frame: uint64(i)},
			Meta: Metadata{
				"label": StrV([]string{"car", "bus"}[i%2]),
				"score": FloatV(float64(i) / 4),
				"rank":  IntV(int64(i % 5)),
				"emb":   VecV([]float32{float32(i), 1}),
				"box":   RectV(0, 0, float64(i), 1),
				"extra": IntV(int64(i)),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	check(rows)
}

// TestSnapshotColdLoadConcurrency: after a reopen, concurrent cold
// snapshot loads racing appends must produce a duplicate-free cache
// consistent with its version (one load under the collection's lock),
// and every appended row survives the next reopen.
func TestSnapshotColdLoadConcurrency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dl.db")
	db, _ := columnCollectionAt(t, path, 400)
	for round := 0; round < 4; round++ {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = reopenDB(t, path)
		col, err := db.Collection("col.dets")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					ps, err := col.Patches()
					if err != nil {
						t.Error(err)
						return
					}
					seen := make(map[PatchID]bool, len(ps))
					for _, p := range ps {
						if seen[p.ID] {
							t.Errorf("duplicate patch %d in snapshot", p.ID)
							return
						}
						seen[p.ID] = true
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 400 + 10*round; i < 410+10*round; i++ {
				if err := col.Append(columnPatch(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	col, err := reopenDB(t, path).Collection("col.dets")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := col.Patches()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 440 {
		t.Fatalf("final snapshot has %d rows, want 440", len(ps))
	}
}

func ExampleColumnStore() {
	ps := []*Patch{
		{ID: 1, Meta: Metadata{"label": StrV("car"), "score": FloatV(0.9)}},
		{ID: 2, Meta: Metadata{"label": StrV("bus"), "score": FloatV(0.4)}},
		{ID: 3, Meta: Metadata{"label": StrV("car"), "score": FloatV(0.7)}},
	}
	cs := newColumnStore(snapshotOf(ps, 1), nil)
	sel, _, _ := cs.FilterEqStats("label", StrV("car"))
	top, _ := cs.TopK(sel, "score", false, 1)
	for _, p := range cs.Materialize(top) {
		fmt.Println(p.ID, metaVal(p, "score").Float())
	}
	// Output: 3 0.7
}
