package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/exec"
)

// Hash/B+ tree index lifecycle tests: an index that followed its
// collection by extension must be indistinguishable — ids and their
// order — from one freshly built over the same snapshot, and both must
// agree with the scan; certification failures rebuild, nothing else does.

// lifecycleSchema leaves "key" undeclared so one field can carry int and
// float values (kind-prefixed sort keys: two disjoint key regions).
func lifecycleSchema() Schema {
	return Schema{Fields: []Field{{Name: "label", Kind: KindStr}}}
}

// lifecyclePatch is row i of the deterministic stream: label "hot" on
// two rows of three (one posting list that crosses chunk boundaries
// quickly), key cycling ints 0..36 with every fifth row a float.
func lifecyclePatch(i int) *Patch {
	label := "hot"
	if i%3 == 2 {
		label = "cold"
	}
	key := IntV(int64(i % 37))
	if i%5 == 0 {
		key = FloatV(float64(i%37) + 0.5)
	}
	return &Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Meta: Metadata{"label": StrV(label), "key": key}}
}

func appendLifecycle(t testing.TB, col *Collection, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := col.Append(lifecyclePatch(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// scalarStats is db's hash/B+ tree maintenance record: extends,
// rebuilds and rows inserted.
func scalarStats(db *DB) (extends, rebuilds, inserted int64) {
	rs := db.RefreshStats()
	return rs.ScalarExtends, rs.ScalarRebuilds, rs.ScalarInserted
}

// scanIDs is the reference: ids of snap's rows satisfying pred, in
// snapshot order.
func scanIDs(snap Snapshot, pred func(*Patch) bool) []PatchID {
	var out []PatchID
	for _, p := range snap.rows {
		if pred(p) {
			out = append(out, p.ID)
		}
	}
	return out
}

// indexAnswers runs the probe set against both indexes over snap:
// every distinct label through the hash index, every key value through
// B+ tree equality, and a few B+ tree ranges in each numeric key region.
func indexAnswers(t *testing.T, hash, bt *Index, snap Snapshot) map[string][]PatchID {
	t.Helper()
	out := map[string][]PatchID{}
	for _, l := range []string{"hot", "cold", "absent"} {
		ids, err := hash.LookupEq(snap, StrV(l))
		if err != nil {
			t.Fatal(err)
		}
		out["hash:"+l] = ids
	}
	for k := 0; k < 37; k += 6 {
		for _, v := range []Value{IntV(int64(k)), FloatV(float64(k) + 0.5)} {
			ids, err := bt.LookupEq(snap, v)
			if err != nil {
				t.Fatal(err)
			}
			out["bteq:"+fmt.Sprint(v)] = ids
		}
	}
	for _, r := range [][2]Value{
		{IntV(3), IntV(11)}, {IntV(0), IntV(37)}, {IntV(36), IntV(36)},
		{FloatV(2.5), FloatV(20)}, {FloatV(-1), FloatV(100)},
	} {
		lo, hi := r[0], r[1]
		ids, err := bt.LookupRange(snap, &lo, &hi)
		if err != nil {
			t.Fatal(err)
		}
		out["btrange:"+fmt.Sprint(lo, "..", hi)] = ids
	}
	return out
}

// checkAgainstScan compares the equality answers with the scan exactly
// (posting lists and same-key B+ tree entries are in id order, which is
// snapshot order here) and the range answers as sets.
func checkAgainstScan(t *testing.T, stage string, got map[string][]PatchID, snap Snapshot) {
	t.Helper()
	for _, l := range []string{"hot", "cold", "absent"} {
		want := scanIDs(snap, func(p *Patch) bool { return metaVal(p, "label").Str() == l })
		if !reflect.DeepEqual(got["hash:"+l], want) {
			t.Fatalf("%s: hash %q: %d ids, scan %d", stage, l, len(got["hash:"+l]), len(want))
		}
	}
	for k := 0; k < 37; k += 6 {
		for _, v := range []Value{IntV(int64(k)), FloatV(float64(k) + 0.5)} {
			want := scanIDs(snap, func(p *Patch) bool { return metaVal(p, "key").Equal(v) })
			if !reflect.DeepEqual(got["bteq:"+fmt.Sprint(v)], want) {
				t.Fatalf("%s: btree eq %v: %v, scan %v", stage, v, got["bteq:"+fmt.Sprint(v)], want)
			}
		}
	}
	inRange := func(lo, hi Value) func(*Patch) bool {
		return func(p *Patch) bool {
			v := metaVal(p, "key")
			if v.Kind != lo.Kind {
				return false
			}
			if v.Kind == KindInt {
				return v.Int() >= lo.Int() && v.Int() < hi.Int()
			}
			return v.Float() >= lo.Float() && v.Float() < hi.Float()
		}
	}
	for _, r := range [][2]Value{
		{IntV(3), IntV(11)}, {IntV(0), IntV(37)}, {IntV(36), IntV(36)},
		{FloatV(2.5), FloatV(20)}, {FloatV(-1), FloatV(100)},
	} {
		g := append([]PatchID(nil), got["btrange:"+fmt.Sprint(r[0], "..", r[1])]...)
		want := scanIDs(snap, inRange(r[0], r[1]))
		sortIDs(g)
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: btree range %v..%v: %d ids, scan %d", stage, r[0], r[1], len(g), len(want))
		}
	}
}

// TestIndexExtendEqualsFreshBuildEqualsScan pins the contract across
// alignments: no new rows, one row, a posting list crossing the
// postingChunk boundary, and enough rows to split B+ tree leaves and the
// (leaf) root — with int and float keys in one field throughout.
func TestIndexExtendEqualsFreshBuildEqualsScan(t *testing.T) {
	for _, tc := range []struct{ oldN, n int }{
		{120, 120}, // version stands: pure hit
		{120, 121}, // one row
		{0, 50},    // empty prefix
		{postingChunk*3/2 - 7, 2*postingChunk*3/2 + 9}, // "hot" crosses a chunk boundary mid-extend
		{100, 900}, // single-leaf root, then leaf and root splits
	} {
		db := openDB(t)
		col, err := db.CreateCollection("c", lifecycleSchema())
		if err != nil {
			t.Fatal(err)
		}
		appendLifecycle(t, col, 0, tc.oldN)
		hash, err := db.BuildIndex(col, "label", IdxHash)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := db.BuildIndex(col, "key", IdxBTree)
		if err != nil {
			t.Fatal(err)
		}
		appendLifecycle(t, col, tc.oldN, tc.n)
		snap, err := col.Current()
		if err != nil {
			t.Fatal(err)
		}
		_, r0, n0 := scalarStats(db)
		extended := indexAnswers(t, hash, bt, snap)
		e1, r1, n1 := scalarStats(db)
		wantExtends := int64(2)
		if tc.n == tc.oldN {
			wantExtends = 0
		}
		if r1 != r0 || e1 != wantExtends || n1-n0 != 2*int64(tc.n-tc.oldN) {
			t.Fatalf("%d->%d: extends %d rebuilds +%d inserted +%d, want %d/0/%d",
				tc.oldN, tc.n, e1, r1-r0, n1-n0, wantExtends, 2*(tc.n-tc.oldN))
		}
		checkAgainstScan(t, "extended", extended, snap)

		// Rebuild both in place over the same snapshot.
		if _, err := db.BuildIndex(col, "label", IdxHash); err != nil {
			t.Fatal(err)
		}
		if _, err := db.BuildIndex(col, "key", IdxBTree); err != nil {
			t.Fatal(err)
		}
		if _, r2, _ := scalarStats(db); r2 != r1+2 {
			t.Fatalf("BuildIndex over a live index did not rebuild: %d -> %d", r1, r2)
		}
		fresh := indexAnswers(t, hash, bt, snap)
		if !reflect.DeepEqual(extended, fresh) {
			t.Fatalf("%d->%d: extended index answers diverge from a fresh build", tc.oldN, tc.n)
		}
	}
}

// TestStaleIndexPlansSeeAppends: an index built before the collection
// grew must serve every row through core's own planner path and through
// an equality probe per join key (both dropped the appended rows before indexes
// followed the collection version).
func TestStaleIndexPlansSeeAppends(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("dets", simpleSchema())
	left, _ := db.CreateCollection("l", simpleSchema())
	for i := 0; i < 50; i++ {
		col.Append(mkPatch("car", int64(i%12)))
		left.Append(mkPatch("player", int64(i%8)))
	}
	if _, err := db.BuildIndex(col, "label", IdxHash); err != nil {
		t.Fatal(err)
	}
	joinIdx, err := db.BuildIndex(col, "frameno", IdxHash)
	if err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 60; i++ {
		col.Append(mkPatch("car", int64(i%12)))
	}

	m, err := db.PlanFilter(col, "label", StrV("car"))
	if err != nil || m != FilterHashIndex {
		t.Fatalf("plan = %v, %v", m, err)
	}
	indexed, err := db.ExecuteFilter(col, "label", StrV("car"), m)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := db.ExecuteFilter(col, "label", StrV("car"), FilterScan)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) != 60 || !reflect.DeepEqual(indexed, scan) {
		t.Fatalf("indexed plan returned %d rows, scan %d", len(indexed), len(scan))
	}

	// The join index answers each distinct left frameno with every row of
	// the grown collection that carries it.
	snap, err := col.Current()
	if err != nil {
		t.Fatal(err)
	}
	lps, _ := left.Patches()
	probed := map[int64]bool{}
	for _, l := range lps {
		v := metaVal(l, "frameno")
		if probed[v.Int()] {
			continue
		}
		probed[v.Int()] = true
		ids, err := joinIdx.LookupEq(snap, v)
		if err != nil {
			t.Fatal(err)
		}
		pred, want := Pred{Field: "frameno", V: v}, 0
		for _, p := range snap.rows {
			if pred.Match(p) {
				want++
			}
		}
		if want == 0 || len(ids) != want {
			t.Fatalf("frameno %d: index join %d rows over the grown collection, scan %d", v.Int(), len(ids), want)
		}
	}
}

// TestIndexReaderBehindAndCacheReload: a reader whose snapshot raced
// behind the index is answered from it without the newer rows (no
// maintenance), and a row cache reloaded by a reopen after the
// collection moved past the persisted index rebuilds.
func TestIndexReaderBehindAndCacheReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dl.db")
	db := reopenDB(t, path)
	col, _ := db.CreateCollection("c", lifecycleSchema())
	appendLifecycle(t, col, 0, 500)
	hash, _ := db.BuildIndex(col, "label", IdxHash)
	bt, _ := db.BuildIndex(col, "key", IdxBTree)
	oldSnap, _ := col.Current()

	appendLifecycle(t, col, 500, 640)
	snap, _ := col.Current()
	checkAgainstScan(t, "current", indexAnswers(t, hash, bt, snap), snap)
	e0, r0, _ := scalarStats(db)
	checkAgainstScan(t, "behind", indexAnswers(t, hash, bt, oldSnap), oldSnap)
	checkAgainstScan(t, "current again", indexAnswers(t, hash, bt, snap), snap)
	if e, r, _ := scalarStats(db); e != e0 || r != r0 {
		t.Fatalf("a reader behind the index moved it: extends %d->%d rebuilds %d->%d", e0, e, r0, r)
	}

	appendLifecycle(t, col, 640, 641)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = reopenDB(t, path)
	col, _ = db.Collection("c")
	hash, _ = db.Index(col, "label", IdxHash)
	bt, _ = db.Index(col, "key", IdxBTree)
	snap, _ = col.Current()
	checkAgainstScan(t, "reloaded", indexAnswers(t, hash, bt, snap), snap)
	if e, r, _ := scalarStats(db); e != 0 || r != 2 {
		t.Fatalf("cache reload: extends %d rebuilds %d, want two rebuilds", e, r)
	}
}

// TestStaleHandleProbeRebuilds: indexes are registered by collection
// name, so after a drop and re-create an old *Collection handle reaches
// the re-created collection's indexes. Its probes carry a snapshot of
// another Collection value — here one holding more rows than the index
// covers — and rebuild over it, answering it exactly; the re-created
// collection's next probes rebuild again and still equal its row scan.
func TestStaleHandleProbeRebuilds(t *testing.T) {
	db := openDB(t)
	old, _ := db.CreateCollection("c", lifecycleSchema())
	appendLifecycle(t, old, 0, 600)
	oldSnap, _ := old.Current()
	if err := db.DropCollection("c"); err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("c", lifecycleSchema())
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, col, 1000, 1300)
	hash, _ := db.EnsureIndex(col, "label", IdxHash)
	bt, _ := db.EnsureIndex(col, "key", IdxBTree)
	snap, _ := col.Current()
	checkAgainstScan(t, "re-created", indexAnswers(t, hash, bt, snap), snap)

	oldHash, err := db.EnsureIndex(old, "label", IdxHash)
	if err != nil {
		t.Fatal(err)
	}
	oldBT, err := db.EnsureIndex(old, "key", IdxBTree)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstScan(t, "old handle", indexAnswers(t, oldHash, oldBT, oldSnap), oldSnap)

	appendLifecycle(t, col, 1300, 1310)
	snap, _ = col.Current()
	checkAgainstScan(t, "re-created after the old handle", indexAnswers(t, hash, bt, snap), snap)
	if e, r, _ := scalarStats(db); e != 0 || r != 6 {
		t.Fatalf("extends %d rebuilds %d, want 0/6: a build per index for each collection switch", e, r)
	}
}

// TestReopenedIndexKeepsVersionAndServesConcurrentProbes: an index
// reopened while the collection still stands at the version it was
// persisted at is current (no rebuild), and concurrent range probes —
// two workers serving use_index range queries after a restart —
// serialize on the index instead of racing on the B+ tree's node cache.
// Appends then extend it. Reopened after the collection moved on, it
// rebuilds.
func TestReopenedIndexKeepsVersionAndServesConcurrentProbes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dl.db")
	db, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("c", lifecycleSchema())
	appendLifecycle(t, col, 0, 2000)
	if _, err := db.BuildIndex(col, "key", IdxBTree); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildIndex(col, "label", IdxHash); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	col2, _ := db2.Collection("c")
	bt, err := db2.Index(col2, "key", IdxBTree)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := db2.Index(col2, "label", IdxHash)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := col2.Current()
	lo, hi := IntV(5), IntV(30)
	want := scanIDs(snap, func(p *Patch) bool { v := metaVal(p, "key"); return v.Kind == KindInt && v.Int() >= 5 && v.Int() < 30 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids, err := bt.LookupRange(snap, &lo, &hi)
			if err != nil {
				t.Error(err)
				return
			}
			sortIDs(ids)
			if !reflect.DeepEqual(ids, want) {
				t.Errorf("concurrent range probe: %d ids, scan %d", len(ids), len(want))
			}
		}()
	}
	wg.Wait()
	checkAgainstScan(t, "reopened", indexAnswers(t, hash, bt, snap), snap)
	if e, r, _ := scalarStats(db2); e != 0 || r != 0 {
		t.Fatalf("reopen at the persisted version maintained the index: extends %d rebuilds %d", e, r)
	}
	// The adopted structures extend like ones built in this process; then
	// the collection moves on unprobed, so the next open finds descriptors
	// of an older version.
	appendLifecycle(t, col2, 2000, 2010)
	snap, _ = col2.Current()
	checkAgainstScan(t, "reopened, extended", indexAnswers(t, hash, bt, snap), snap)
	if e, r, n := scalarStats(db2); e != 2 || r != 0 || n != 20 {
		t.Fatalf("extend after reopen: extends %d rebuilds %d inserted %d, want 2/0/20", e, r, n)
	}
	appendLifecycle(t, col2, 2010, 2020)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	col3, _ := db3.Collection("c")
	bt3, _ := db3.Index(col3, "key", IdxBTree)
	hash3, _ := db3.Index(col3, "label", IdxHash)
	snap, _ = col3.Current()
	checkAgainstScan(t, "reopened stale", indexAnswers(t, hash3, bt3, snap), snap)
	if e, r, _ := scalarStats(db3); e != 0 || r != 2 {
		t.Fatalf("reopen at another version: extends %d rebuilds %d, want 0/2", e, r)
	}
}

// labelPatch is a row of lifecycleSchema with the given label.
func labelPatch(label string) *Patch {
	return &Patch{Ref: Ref{Source: "s"}, Meta: Metadata{"label": StrV(label)}}
}

// TestHashIndexExtendAllocsIndependentOfFill: extending a hash index by
// 64 rows of existing values allocates the same bytes whether their
// buckets are nearly empty (16 short posting lists share one page) or
// nearly full (one 380-id chunk per page) — an insert reads its chunk in
// place and writes it back through scratch, copying no bucket.
func TestHashIndexExtendAllocsIndependentOfFill(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	const values, step = 16, 64
	label := func(i int) string { return fmt.Sprintf("v%02d", i%values) }
	measure := func(perValue int) uint64 {
		db := openDB(t)
		col, _ := db.CreateCollection("c", lifecycleSchema())
		n := values * perValue
		for i := 0; i < n; i++ {
			if err := col.Append(labelPatch(label(i))); err != nil {
				t.Fatal(err)
			}
		}
		hash, err := db.BuildIndex(col, "label", IdxHash)
		if err != nil {
			t.Fatal(err)
		}
		extend := func() uint64 {
			for i := 0; i < step; i++ {
				if err := col.Append(labelPatch(label(i))); err != nil {
					t.Fatal(err)
				}
			}
			snap, _ := col.Current()
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			_, use, err := hash.lookupEq(snap, StrV("absent"))
			runtime.ReadMemStats(&b)
			if err != nil || use != RefreshExtend {
				t.Fatalf("probe after %d appended rows: %v, %v", step, use, err)
			}
			return b.TotalAlloc - a.TotalAlloc
		}
		extend() // sizes the scratch buffers
		// The least of three: a collection between two runs drops pooled
		// pages, which the next run allocates again.
		return min(extend(), extend(), extend())
	}
	sparse, full := measure(1), measure(380)
	if full > sparse+1024 {
		t.Fatalf("a %d-row extend allocates %d B over nearly full buckets, %d B over nearly empty ones", step, full, sparse)
	}
}

// TestHashInsertTouchesOneChunk: the index keeps each value's tail chunk,
// so an insert into a value with 10 full posting chunks reads as many
// pages as one into a value with 1. A reopened index learns a value's
// tail from one walk, on its first insert.
func TestHashInsertTouchesOneChunk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dl.db")
	db, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("c", lifecycleSchema())
	add := func(col *Collection, label string, n int) {
		for ; n > 0; n-- {
			if err := col.Append(labelPatch(label)); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(col, "one", postingChunk+5)
	add(col, "ten", 10*postingChunk+5)
	if _, err := db.BuildIndex(col, "label", IdxHash); err != nil {
		t.Fatal(err)
	}
	// insertReads appends one row labelled label and returns the page
	// reads of the probe that extends the index by it.
	insertReads := func(db *DB, col *Collection, label string) int64 {
		t.Helper()
		hash, err := db.Index(col, "label", IdxHash)
		if err != nil {
			t.Fatal(err)
		}
		add(col, label, 1)
		snap, _ := col.Current()
		before := db.Store().Pager().Reads()
		if _, use, err := hash.lookupEq(snap, StrV("absent")); err != nil || use != RefreshExtend {
			t.Fatalf("probe after appending %q: %v, %v", label, use, err)
		}
		reads := db.Store().Pager().Reads() - before
		for _, l := range []string{"one", "ten"} {
			ids, err := hash.LookupEq(snap, StrV(l))
			if err != nil {
				t.Fatal(err)
			}
			if want := scanIDs(snap, func(p *Patch) bool { return metaVal(p, "label").Str() == l }); !reflect.DeepEqual(ids, want) {
				t.Fatalf("after inserting %q: %q has %d ids, scan %d", label, l, len(ids), len(want))
			}
		}
		return reads
	}
	if one, ten := insertReads(db, col, "one"), insertReads(db, col, "ten"); one != ten {
		t.Fatalf("an insert reads %d pages behind 1 full chunk, %d behind 10", one, ten)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, _ = db.Collection("c")
	walkOne, walkTen := insertReads(db, col, "one"), insertReads(db, col, "ten")
	one, ten := insertReads(db, col, "one"), insertReads(db, col, "ten")
	if one != ten || walkTen != walkOne+9 {
		t.Fatalf("reopened: first inserts read %d pages behind 1 chunk and %d behind 10, then %d and %d",
			walkOne, walkTen, one, ten)
	}
}

// TestIndexRebuildsFreeReplacedPages: a rebuild frees the structure it
// replaces once the descriptor names the new one, so after the first
// forced rebuild (which needs room for both) ten more — a one-row append
// and a BuildIndex each — grow the page file only by what the appended
// rows take: exactly as much as the same appends grow a twin database
// that holds no index.
func TestIndexRebuildsFreeReplacedPages(t *testing.T) {
	db, twin := openDB(t), openDB(t)
	col, _ := db.CreateCollection("c", lifecycleSchema())
	twinCol, _ := twin.CreateCollection("c", lifecycleSchema())
	appendLifecycle(t, col, 0, 3000)
	appendLifecycle(t, twinCol, 0, 3000)
	hash, _ := db.BuildIndex(col, "label", IdxHash)
	bt, _ := db.BuildIndex(col, "key", IdxBTree)
	pager, twinPager := db.Store().Pager(), twin.Store().Pager()
	var pages, twinPages uint64
	for round := 0; round <= 10; round++ {
		appendLifecycle(t, col, 3000+round, 3001+round)
		appendLifecycle(t, twinCol, 3000+round, 3001+round)
		if _, err := db.BuildIndex(col, "label", IdxHash); err != nil {
			t.Fatal(err)
		}
		if _, err := db.BuildIndex(col, "key", IdxBTree); err != nil {
			t.Fatal(err)
		}
		snap, _ := col.Current()
		checkAgainstScan(t, "rebuilt", indexAnswers(t, hash, bt, snap), snap)
		if round == 0 {
			pages, twinPages = pager.NumPages(), twinPager.NumPages()
		} else if got, rows := pager.NumPages()-pages, twinPager.NumPages()-twinPages; got != rows {
			t.Errorf("rebuild %d: page file grew %d pages, its rows %d", round, got, rows)
		}
	}
	if _, r, _ := scalarStats(db); r != 2+2*11 {
		t.Fatalf("%d rebuilds, want %d", r, 2+2*11)
	}
}

// TestReopenAtAnotherVersionFreesPersistedIndex: an index reopened after
// its collection moved on is rebuilt, and the structure its descriptor
// still named is freed, so a second reopen-and-rebuild cycle finds room
// in the freed pages and the file stops growing.
func TestReopenAtAnotherVersionFreesPersistedIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dl.db")
	db, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("c", lifecycleSchema())
	appendLifecycle(t, col, 0, 3000)
	if _, err := db.BuildIndex(col, "key", IdxBTree); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildIndex(col, "label", IdxHash); err != nil {
		t.Fatal(err)
	}
	var pages []uint64
	for cycle := 0; cycle < 3; cycle++ {
		appendLifecycle(t, col, 3000+cycle, 3001+cycle) // the descriptors fall behind
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(path, exec.New(exec.CPU)); err != nil {
			t.Fatal(err)
		}
		col, _ = db.Collection("c")
		bt, _ := db.Index(col, "key", IdxBTree)
		hash, _ := db.Index(col, "label", IdxHash)
		snap, _ := col.Current()
		checkAgainstScan(t, "reopened stale", indexAnswers(t, hash, bt, snap), snap)
		if _, r, _ := scalarStats(db); r != 2 {
			t.Fatalf("cycle %d: %d rebuilds after reopen, want 2", cycle, r)
		}
		pages = append(pages, db.Store().Pager().NumPages())
	}
	defer db.Close()
	if pages[2] != pages[1] {
		t.Fatalf("page file grew across reopen rebuilds: %v", pages)
	}
}
