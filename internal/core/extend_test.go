package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// Incremental column extension tests: Extend must be indistinguishable
// from a fresh projection over the longer snapshot — arrays, dictionary
// codes and zone maps byte for byte — while reusing every sealed block
// of the old store.

// extendPatches builds a deterministic snapshot with an interesting
// suffix: rows >= split introduce a dictionary string the prefix never
// saw, populate the undeclared "late" field the prefix lacks, and flip
// the undeclared "flip" field from int to string.
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
// including the ok verdict: column identity (kind, length, dictionary
// contents and code assignment) and every segment's summary
// and row data byte for byte. Segments carry atomic data pointers (and
// may be shared between the stores), so the comparison is semantic
// rather than reflect.DeepEqual over the whole Column.
func columnsEqual(t *testing.T, field string, a, b *ColumnStore) {
	t.Helper()
	ca, oka := a.Column(field)
	cb, okb := b.Column(field)
	if oka != okb {
		t.Fatalf("field %s: has a column %v vs %v", field, oka, okb)
	}
	if !oka {
		return
	}
	if ca.kind != cb.kind || ca.n != cb.n {
		t.Fatalf("field %s: identity diverges: kind %d/%d n %d/%d",
			field, ca.kind, cb.kind, ca.n, cb.n)
	}
	if !reflect.DeepEqual(ca.dict, cb.dict) || !reflect.DeepEqual(ca.dictIdx, cb.dictIdx) {
		t.Fatalf("field %s: dictionary diverges:\n  a: %v\n  b: %v", field, ca.dict, cb.dict)
	}
	if len(ca.segs) != len(cb.segs) {
		t.Fatalf("field %s: segment count %d vs %d", field, len(ca.segs), len(cb.segs))
	}
	for si := range ca.segs {
		sa, sb := ca.segs[si], cb.segs[si]
		if sa.zone != sb.zone || sa.sealed != sb.sealed {
			t.Fatalf("field %s: segment %d summary diverges:\n  a: %+v sealed=%v\n  b: %+v sealed=%v",
				field, si, sa.zone, sa.sealed, sb.zone, sb.sealed)
		}
		// One reader per side: a cold segment's data may live in the
		// reader's scratch, where only the column kind's array is current.
		ra, rb := segReader{col: ca}, segReader{col: cb}
		da, db := ra.rows(sa, nil), rb.rows(sb, nil)
		var same bool
		switch ca.kind {
		case KindInt:
			same = reflect.DeepEqual(da.ints, db.ints)
		case KindFloat:
			same = reflect.DeepEqual(da.floats, db.floats)
		case KindStr:
			same = reflect.DeepEqual(da.codes, db.codes)
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
// block-aligned old tails and dictionary growth in the declared columns.
// The undeclared fields — one the prefix lacks, one that changes kind in
// the suffix, one that alternates kinds, one most rows lack — have no
// column on either store, and Select runs them as the row scan.
func TestExtendByteIdenticalToFreshBuild(t *testing.T) {
	declared := []string{"label", "score", "rank", "clustered"}
	undeclared := []string{"sparse", "late", "flip", "mixed"}
	db := openDB(t)
	for ci, tc := range []struct{ oldN, n int }{
		{2*ColumnBlockSize + ColumnBlockSize/2, 4 * ColumnBlockSize},       // mid-block tail
		{2 * ColumnBlockSize, 3*ColumnBlockSize + 7},                       // block-aligned old tail
		{ColumnBlockSize / 2, ColumnBlockSize/2 + 3},                       // single partial block
		{0, ColumnBlockSize},                                               // empty prefix
		{3 * ColumnBlockSize, 3 * ColumnBlockSize},                         // no new rows (version-only)
		{ColumnBlockSize + 1, ColumnBlockSize + 1 + 2*ColumnBlockSize + 5}, // multi-block append
	} {
		ps := extendPatches(tc.n, tc.oldN)
		col, err := db.CreateCollection(fmt.Sprintf("ext.%d", ci), columnTestSchema())
		if err != nil {
			t.Fatal(err)
		}
		appendRows := func(rows []*Patch) Snapshot {
			for _, p := range rows {
				if err := col.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := col.Current()
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}
		old := newColumnStore(appendRows(ps[:tc.oldN]), nil)
		for _, f := range append(declared, undeclared...) {
			old.Column(f) // project the declared fields on the old store
		}
		snap := appendRows(ps[tc.oldN:])
		ext, st := old.Extend(snap)
		fresh := newColumnStore(snap, nil)
		for _, f := range declared {
			if _, ok := ext.Column(f); !ok {
				t.Fatalf("oldN=%d: declared %s has no column", tc.oldN, f)
			}
			columnsEqual(t, f, ext, fresh)
		}
		for _, f := range undeclared {
			if _, ok := ext.Column(f); ok {
				t.Fatalf("oldN=%d: undeclared %s has a column", tc.oldN, f)
			}
			columnsEqual(t, f, ext, fresh)
		}
		assertRowScanFallback(t, snap, undeclared...)
		if ext.at.version != snap.version || ext.at.Len() != tc.n {
			t.Fatalf("extended store identity: version %d len %d", ext.at.version, ext.at.Len())
		}
		// Sealed-block accounting: every declared column carries over and
		// reuses exactly the full blocks of the old snapshot.
		sealed := tc.oldN / ColumnBlockSize
		oldBlocks := (tc.oldN + ColumnBlockSize - 1) / ColumnBlockSize
		if st.Columns != len(declared) || st.ReusedBlocks != st.Columns*sealed || st.TotalBlocks != st.Columns*oldBlocks {
			t.Fatalf("oldN=%d: carried %d columns reusing %d/%d blocks, want %d reusing %d/%d",
				tc.oldN, st.Columns, st.ReusedBlocks, st.TotalBlocks, len(declared), len(declared)*sealed, len(declared)*oldBlocks)
		}
		// Query-level agreement over the extended store.
		for _, v := range []Value{StrV("car"), StrV("zeppelin"), StrV("tricycle")} {
			se, _, oke := ext.FilterEqStats("label", v)
			sf, _, okf := fresh.FilterEqStats("label", v)
			if oke != okf || !reflect.DeepEqual(se, sf) {
				t.Fatalf("oldN=%d FilterEqStats(label, %v) diverges", tc.oldN, v)
			}
		}
		re, _, _ := ext.FilterRangeStats("score", 2.5, 7.5)
		rf, _, _ := fresh.FilterRangeStats("score", 2.5, 7.5)
		if !reflect.DeepEqual(re, rf) {
			t.Fatalf("oldN=%d FilterRangeStats diverges", tc.oldN)
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
	before, _, _ := old.FilterEqStats("label", StrV("car"))
	beforeDict := append([]int32(nil), before...)
	if _, st := old.Extend(snapshotOf(ps, 2)); st.Columns == 0 {
		t.Fatal("no columns carried")
	}
	after, _, _ := old.FilterEqStats("label", StrV("car"))
	if !reflect.DeepEqual(beforeDict, after) {
		t.Fatal("Extend mutated the old store's selection results")
	}
	if sel, _, ok := old.FilterEqStats("label", StrV("zeppelin")); !ok {
		t.Fatal("old store lost its label column")
	} else if len(sel) != 0 {
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

// TestColumnExtendAllocsIndependentOfTail: an extension projects only
// the rows it adds. Extending a store whose tail already has a block's
// room (an extension grew it once from its exact-sized projection) by
// 64 rows allocates about the same bytes over a 64-row tail as over a
// 960-row one: the tail grows in place, no copy and no re-projection
// of its old rows.
func TestColumnExtendAllocsIndependentOfTail(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const step, runs = 64, 21
	measure := func(tail int) uint64 {
		n := 2*ColumnBlockSize + tail
		ps := make([]*Patch, n+step)
		for i := range ps {
			ps[i] = columnPatch(i)
			ps[i].ID = PatchID(i + 1)
		}
		all := snapshotOf(ps, 3)
		per := make([]uint64, runs)
		var a, b runtime.MemStats
		for r := range per {
			cs := newColumnStore(cut(all, n-32, 1), nil)
			for _, f := range tieredFields {
				cs.Column(f)
			}
			cs, _ = cs.Extend(cut(all, n, 2))
			runtime.ReadMemStats(&a)
			cs.Extend(all)
			runtime.ReadMemStats(&b)
			per[r] = b.TotalAlloc - a.TotalAlloc
		}
		slices.Sort(per)
		return per[runs/2]
	}
	short, long := measure(step), measure(960)
	t.Logf("64-row extension: %d B over a 64-row tail, %d B over a 960-row tail (medians)", short, long)
	if diff := max(short, long) - min(short, long); diff >= 1<<10 {
		t.Fatalf("a 64-row extension allocates %d B over a 64-row tail and %d B over a 960-row one: %d B apart, want < 1 KiB",
			short, long, diff)
	}
}

// tailAnswers is what the tail tests ask a store: equalities on an old
// and a suffix-only string, a float range and two top-ks.
type tailAnswers struct{ car, zeppelin, scores, rank, label []int32 }

func answersOf(cs *ColumnStore) tailAnswers {
	var a tailAnswers
	a.car, _, _ = cs.FilterEqStats("label", StrV("car"))
	a.zeppelin, _, _ = cs.FilterEqStats("label", StrV("zeppelin"))
	a.scores, _, _ = cs.FilterRangeStats("score", 2.5, 7.5)
	a.rank, _ = cs.TopK(nil, "rank", true, 25)
	a.label, _ = cs.TopK(nil, "label", false, 25)
	return a
}

// TestColumnTailSiblingExtends races two extensions of one store whose
// tail has a block's room, over suffixes that differ in every row (one
// crossing into the next block, with a new dictionary string), while
// readers query the store and its parent. One extension wins the tail's
// claim and appends in place; the other must copy: every older store
// keeps answering its own rows, and both results, and their own
// extensions, match fresh projections. CI runs it under -race.
func TestColumnTailSiblingExtends(t *testing.T) {
	const base = ColumnBlockSize + 100
	ps := make([]*Patch, base+64)
	for i := range ps {
		ps[i] = columnPatch(i)
		ps[i].ID = PatchID(i + 1)
	}
	suffix := func(n, shift int) []*Patch {
		rows := slices.Clone(ps)
		for i := len(ps); i < len(ps)+n; i++ {
			p := columnPatch(i + shift)
			if shift > 0 && i%4 == 0 {
				p.Meta["label"] = StrV("zeppelin")
			}
			p.ID = PatchID(i + 1)
			rows = append(rows, p)
		}
		return rows
	}
	rowsA, rowsB := suffix(64+200, 0), suffix(1000+200, 1)
	for round := 0; round < 8; round++ {
		s0 := newColumnStore(snapshotOf(ps[:base], 1), nil)
		for _, f := range tieredFields {
			s0.Column(f)
		}
		s1, _ := s0.Extend(snapshotOf(ps, 2)) // the tail now has a block's room
		want0, want1 := answersOf(s0), answersOf(s1)

		var done atomic.Bool
		var readers, writers sync.WaitGroup
		for _, r := range []struct {
			cs   *ColumnStore
			want tailAnswers
		}{{s0, want0}, {s1, want1}} {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for !done.Load() {
					if got := answersOf(r.cs); !reflect.DeepEqual(got, r.want) {
						t.Errorf("round %d: a %d-row store's answers changed during its extensions", round, r.cs.at.Len())
						return
					}
				}
			}()
		}
		var a, b *ColumnStore
		snapA, snapB := snapshotOf(rowsA[:len(ps)+64], 3), snapshotOf(rowsB[:len(ps)+1000], 3)
		writers.Add(2)
		go func() { defer writers.Done(); a, _ = s1.Extend(snapA) }()
		go func() { defer writers.Done(); b, _ = s1.Extend(snapB) }()
		writers.Wait()
		done.Store(true)
		readers.Wait()

		for _, c := range []struct {
			ext  *ColumnStore
			rows []*Patch
			n    int
		}{{a, rowsA, len(ps) + 64}, {b, rowsB, len(ps) + 1000}} {
			fresh := newColumnStore(snapshotOf(c.rows[:c.n], 3), nil)
			for _, f := range tieredFields {
				columnsEqual(t, f, c.ext, fresh)
			}
			// The winner's result carries the claim on; the loser's copy
			// has a block's room too.
			next, _ := c.ext.Extend(snapshotOf(c.rows, 4))
			fresh = newColumnStore(snapshotOf(c.rows, 4), nil)
			for _, f := range tieredFields {
				columnsEqual(t, f, next, fresh)
			}
		}
		if !reflect.DeepEqual(answersOf(s0), want0) || !reflect.DeepEqual(answersOf(s1), want1) {
			t.Fatalf("round %d: an older store's answers changed", round)
		}
	}
}
