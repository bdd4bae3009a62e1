package core

import (
	"path/filepath"
	"reflect"
	"testing"
)

// Incremental column extension tests: Extend must be indistinguishable
// from a fresh projection over the longer snapshot — arrays, dictionary
// codes, null bitmaps and zone maps byte for byte — while reusing every
// sealed block of the old store.

// extendPatches builds a deterministic snapshot with an interesting
// suffix: rows >= split introduce a dictionary string the prefix never
// saw, populate the prefix-all-null "late" field, and flip the "flip"
// field from int to string (breaking columnizability exactly as a fresh
// build would discover).
func extendPatches(n, split int) []*Patch {
	ps := make([]*Patch, n)
	for i := 0; i < n; i++ {
		p := columnPatch(i)
		p.ID = PatchID(i + 1)
		if i >= split {
			if i%7 == 0 {
				p.Meta["label"] = StrV("zeppelin") // new dictionary code
			}
			p.Meta["late"] = IntV(int64(i))
			p.Meta["flip"] = StrV("now-a-string")
		} else {
			p.Meta["flip"] = IntV(int64(i))
		}
		ps[i] = p
	}
	return ps
}

// columnsEqual compares one field's projection between two stores,
// including the ok verdict: column identity (kind, length, null count,
// dictionary contents and code assignment) and every segment's summary
// and row data byte for byte. Segments carry atomic data pointers (and
// may be shared between the stores), so the comparison is semantic
// rather than reflect.DeepEqual over the whole Column.
func columnsEqual(t *testing.T, field string, a, b *ColumnStore) {
	t.Helper()
	ca, oka := a.Column(field)
	cb, okb := b.Column(field)
	if oka != okb {
		t.Fatalf("field %s: columnizable %v vs %v", field, oka, okb)
	}
	if !oka {
		return
	}
	if ca.kind != cb.kind || ca.n != cb.n || ca.nnull != cb.nnull {
		t.Fatalf("field %s: identity diverges: kind %d/%d n %d/%d nnull %d/%d",
			field, ca.kind, cb.kind, ca.n, cb.n, ca.nnull, cb.nnull)
	}
	if !reflect.DeepEqual(ca.dict, cb.dict) || !reflect.DeepEqual(ca.dictIdx, cb.dictIdx) {
		t.Fatalf("field %s: dictionary diverges:\n  a: %v\n  b: %v", field, ca.dict, cb.dict)
	}
	if len(ca.segs) != len(cb.segs) {
		t.Fatalf("field %s: segment count %d vs %d", field, len(ca.segs), len(cb.segs))
	}
	for si := range ca.segs {
		sa, sb := ca.segs[si], cb.segs[si]
		if sa.zone != sb.zone || sa.nnull != sb.nnull || sa.sealed != sb.sealed {
			t.Fatalf("field %s: segment %d summary diverges:\n  a: %+v nnull=%d sealed=%v\n  b: %+v nnull=%d sealed=%v",
				field, si, sa.zone, sa.nnull, sa.sealed, sb.zone, sb.nnull, sb.sealed)
		}
		// One reader per side: a cold segment's data may live in the
		// reader's scratch, where only the column kind's array is current.
		ra, rb := segReader{col: ca}, segReader{col: cb}
		da, db := ra.rows(sa, nil), rb.rows(sb, nil)
		same := reflect.DeepEqual(da.nulls, db.nulls)
		switch ca.kind {
		case KindInt:
			same = same && reflect.DeepEqual(da.ints, db.ints)
		case KindFloat:
			same = same && reflect.DeepEqual(da.floats, db.floats)
		case KindStr:
			same = same && reflect.DeepEqual(da.codes, db.codes)
		}
		if !same {
			t.Fatalf("field %s: segment %d data diverges:\n  a: %+v\n  b: %+v", field, si, da, db)
		}
		ra.close()
		rb.close()
	}
}

// TestExtendByteIdenticalToFreshBuild pins the golden contract at the
// store level across block-boundary alignments: mid-block and
// block-aligned old tails, dictionary growth, nullable fields, a field
// that becomes columnizable only through the suffix, and one that stops
// being columnizable because of it.
func TestExtendByteIdenticalToFreshBuild(t *testing.T) {
	fields := []string{"label", "score", "rank", "sparse", "clustered", "late", "flip", "mixed"}
	for _, tc := range []struct{ oldN, n int }{
		{2*ColumnBlockSize + ColumnBlockSize/2, 4 * ColumnBlockSize},       // mid-block tail
		{2 * ColumnBlockSize, 3*ColumnBlockSize + 7},                       // block-aligned old tail
		{ColumnBlockSize / 2, ColumnBlockSize/2 + 3},                       // single partial block
		{0, ColumnBlockSize},                                               // empty prefix
		{3 * ColumnBlockSize, 3 * ColumnBlockSize},                         // no new rows (version-only)
		{ColumnBlockSize + 1, ColumnBlockSize + 1 + 2*ColumnBlockSize + 5}, // multi-block append
	} {
		ps := extendPatches(tc.n, tc.oldN)
		old := newColumnStore(snapshotOf(ps[:tc.oldN], 1), nil)
		for _, f := range fields {
			old.Column(f) // project (or record nil) on the old store
		}
		ext, st := old.Extend(snapshotOf(ps, 2))
		fresh := newColumnStore(snapshotOf(ps, 2), nil)
		for _, f := range fields {
			columnsEqual(t, f, ext, fresh)
		}
		if ext.at.version != 2 || ext.at.Len() != tc.n {
			t.Fatalf("extended store identity: version %d len %d", ext.at.version, ext.at.Len())
		}
		// Sealed-block accounting: every carried column reuses exactly the
		// full blocks of the old snapshot.
		sealed := tc.oldN / ColumnBlockSize
		oldBlocks := (tc.oldN + ColumnBlockSize - 1) / ColumnBlockSize
		if tc.oldN > 0 {
			// label/score/rank/sparse/clustered project; flip carried but
			// broken by the suffix when rows straddle the split; late/mixed
			// are nil on the old store.
			if st.Columns < 5 {
				t.Fatalf("oldN=%d: carried %d columns, want >= 5", tc.oldN, st.Columns)
			}
			if st.ReusedBlocks != st.Columns*sealed || st.TotalBlocks != st.Columns*oldBlocks {
				t.Fatalf("oldN=%d: reuse %d/%d blocks over %d columns, want %d/%d",
					tc.oldN, st.ReusedBlocks, st.TotalBlocks, st.Columns, st.Columns*sealed, st.Columns*oldBlocks)
			}
		}
		// Query-level agreement over the extended store.
		for _, v := range []Value{StrV("car"), StrV("zeppelin"), StrV("tricycle")} {
			se, oke := ext.FilterEq("label", v)
			sf, okf := fresh.FilterEq("label", v)
			if oke != okf || !reflect.DeepEqual(se, sf) {
				t.Fatalf("oldN=%d FilterEq(label, %v) diverges", tc.oldN, v)
			}
		}
		re, _ := ext.FilterRange("score", 2.5, 7.5)
		rf, _ := fresh.FilterRange("score", 2.5, 7.5)
		if !reflect.DeepEqual(re, rf) {
			t.Fatalf("oldN=%d FilterRange diverges", tc.oldN)
		}
		te, _ := ext.TopK(nil, "score", true, 25)
		tf, _ := fresh.TopK(nil, "score", true, 25)
		if !reflect.DeepEqual(te, tf) {
			t.Fatalf("oldN=%d TopK diverges", tc.oldN)
		}
		le, _ := ext.TopK(nil, "label", false, 25)
		lf, _ := fresh.TopK(nil, "label", false, 25)
		if !reflect.DeepEqual(le, lf) {
			t.Fatalf("oldN=%d TopK(label) diverges", tc.oldN)
		}
	}
}

// TestExtendDoesNotMutateOldStore: readers holding the stale store must
// see their snapshot's results forever, byte for byte.
func TestExtendDoesNotMutateOldStore(t *testing.T) {
	const oldN = ColumnBlockSize + 100
	ps := extendPatches(oldN+2*ColumnBlockSize, oldN)
	old := newColumnStore(snapshotOf(ps[:oldN], 1), nil)
	before, _ := old.FilterEq("label", StrV("car"))
	beforeDict := append([]int32(nil), before...)
	if _, st := old.Extend(snapshotOf(ps, 2)); st.Columns == 0 {
		t.Fatal("no columns carried")
	}
	after, _ := old.FilterEq("label", StrV("car"))
	if !reflect.DeepEqual(beforeDict, after) {
		t.Fatal("Extend mutated the old store's selection results")
	}
	if _, ok := old.FilterEq("label", StrV("zeppelin")); !ok {
		t.Fatal("old store lost its label column")
	} else if sel, _ := old.FilterEq("label", StrV("zeppelin")); len(sel) != 0 {
		t.Fatal("old store's dictionary leaked a suffix-only code")
	}
	if old.at.Len() != oldN {
		t.Fatalf("old store length changed: %d", old.at.Len())
	}
}

// TestCollectionColumnsExtends: the catalog-level upgrade path — a query
// after appends extends the cached store in place (sealed blocks reused,
// counters recorded) instead of rebuilding, and a reopened DB's first
// Columns builds in full.
func TestCollectionColumnsExtends(t *testing.T) {
	const base = 3000 // 2 sealed blocks + 952-row tail
	path := filepath.Join(t.TempDir(), "dl.db")
	db, col := columnCollectionAt(t, path, base)

	cs0, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cs0.Column("label"); !ok {
		t.Fatal("label did not project")
	}
	if _, ok := cs0.Column("rank"); !ok {
		t.Fatal("rank did not project")
	}

	for i := base; i < base+ColumnBlockSize; i++ {
		if err := col.Append(columnPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	cs1, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if cs1 == cs0 || cs1.at.Len() != base+ColumnBlockSize {
		t.Fatalf("stale store served after append (len %d)", cs1.at.Len())
	}
	rs := db.RefreshStats()
	if rs.ColumnExtends != 1 {
		t.Fatalf("extends = %d, want 1", rs.ColumnExtends)
	}
	// Two carried columns, each 2 sealed of 3 old blocks.
	if rs.ColumnReusedBlocks != 4 || rs.ColumnTotalBlocks != 6 {
		t.Fatalf("block reuse %d/%d, want 4/6", rs.ColumnReusedBlocks, rs.ColumnTotalBlocks)
	}
	// Byte-identical to a fresh build over the same snapshot.
	fresh := newColumnStore(cs1.at, nil)
	for _, f := range []string{"label", "rank", "score"} {
		columnsEqual(t, f, cs1, fresh)
	}
	// Idempotent: a second Columns call at the same version returns the
	// cached store without another extension.
	cs2, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if cs2 != cs1 {
		t.Fatal("same-version Columns did not serve the cached store")
	}
	if e2 := db.RefreshStats().ColumnExtends; e2 != 1 {
		t.Fatalf("same-version Columns re-extended: %d", e2)
	}

	// A reopened DB holds no store: after an append its first Columns is
	// a full build, counted as no extension.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = reopenDB(t, path)
	col, err = db.Collection("col.dets")
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Append(columnPatch(base + ColumnBlockSize)); err != nil {
		t.Fatal(err)
	}
	cs3, info, err := col.ColumnsWithInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Refresh != RefreshRebuild || cs3.at.Len() != base+ColumnBlockSize+1 {
		t.Fatalf("reopened Columns: %v over %d rows, want a rebuild over %d", info.Refresh, cs3.at.Len(), base+ColumnBlockSize+1)
	}
	if e3 := db.RefreshStats().ColumnExtends; e3 != 0 {
		t.Fatalf("rebuild after a reopen counted as extend: %d", e3)
	}
}
