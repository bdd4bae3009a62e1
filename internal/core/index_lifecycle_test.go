package core

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// Sorted index tests. An index is the sort order of each sealed
// column segment: built once per segment, shared by every later store
// that carries the segment, and answering exactly what the row scan
// answers — for the current snapshot, a reader behind it, a reopened
// database and a stale collection handle.

// lifecycleSchema declares a string, an int and a float field: every
// indexed field has a column.
func lifecycleSchema() Schema {
	return Schema{Fields: []Field{{Name: "label", Kind: KindStr}, {Name: "key", Kind: KindInt}, {Name: "f", Kind: KindFloat}}}
}

// lifecyclePatch is row i of the deterministic stream: label "hot" on
// two rows of three, key cycling 0..36, and f its float twin plus a
// half — but NaN on every eleventh row and -0 on every thirteenth, the
// values whose order the float sort and the kernels must agree on.
func lifecyclePatch(i int) *Patch {
	label := "hot"
	if i%3 == 2 {
		label = "cold"
	}
	f := float64(i%37) + 0.5
	switch {
	case i%11 == 0:
		f = math.NaN()
	case i%13 == 0:
		f = math.Copysign(0, -1)
	}
	return &Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Meta: Metadata{"label": StrV(label), "key": IntV(int64(i % 37)), "f": FloatV(f)}}
}

func appendLifecycle(t testing.TB, col *Collection, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := col.Append(lifecyclePatch(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// lifecycleFields are the indexed fields: label, key and f.
var lifecycleFields = []string{"label", "key", "f"}

// buildLifecycleIndexes declares the sorted index on every lifecycle
// field.
func buildLifecycleIndexes(t testing.TB, db *DB, col *Collection) {
	t.Helper()
	for _, field := range lifecycleFields {
		if _, err := db.BuildIndex(col, field, IdxSorted); err != nil {
			t.Fatal(err)
		}
	}
}

// lifecycleProbes is the probe set: equality on every label, a spread
// of keys and f values (-0 and NaN included), and ranges over both
// numeric columns, NaN and empty bounds included.
func lifecycleProbes() []Pred {
	var ps []Pred
	for _, l := range []string{"hot", "cold", "absent"} {
		ps = append(ps, Pred{Field: "label", V: StrV(l)})
	}
	for k := 0; k < 37; k += 6 {
		ps = append(ps, Pred{Field: "key", V: IntV(int64(k))}, Pred{Field: "f", V: FloatV(float64(k) + 0.5)})
	}
	for _, v := range []float64{0, math.NaN(), 100} {
		ps = append(ps, Pred{Field: "f", V: FloatV(v)})
	}
	for _, r := range [][2]float64{{3, 11}, {0, 37}, {36, 36}, {2.5, 20}, {-1, 100}, {math.Inf(-1), 0.5}, {math.NaN(), 5}, {5, math.NaN()}} {
		for _, field := range []string{"key", "f"} {
			ps = append(ps, Pred{Field: field, Range: true, Lo: r[0], Hi: r[1]})
		}
	}
	return ps
}

// indexAnswers runs the probe set over snap, through the sorted index
// or, with scan, through the row scan.
func indexAnswers(t *testing.T, snap Snapshot, scan bool) map[string][]PatchID {
	t.Helper()
	out := map[string][]PatchID{}
	m := FilterIndex
	if scan {
		m = FilterScan
	}
	for _, p := range lifecycleProbes() {
		out[fmt.Sprintf("%+v", p)] = selectIDs(t, snap, p, m)
	}
	return out
}

// checkAgainstScan compares the index answers over snap with the row
// scan's, ids and order.
func checkAgainstScan(t *testing.T, stage string, snap Snapshot) map[string][]PatchID {
	t.Helper()
	got, want := indexAnswers(t, snap, false), indexAnswers(t, snap, true)
	for k, ids := range want {
		if !reflect.DeepEqual(got[k], ids) {
			t.Fatalf("%s, %d rows: %s: %d ids, row scan %d", stage, snap.Len(), k, len(got[k]), len(ids))
		}
	}
	return got
}

// sortedSegments is db's count of segment orders sorted.
func sortedSegments(db *DB) int64 { return db.RefreshStats().ScalarSorted }

// TestIndexExtendEqualsFreshBuildEqualsScan pins the contract across
// alignments — no new rows, one row, an empty prefix, a segment sealing
// mid-extend, several sealing at once: the indexes of a collection that
// grew after BuildIndex answer exactly what a fresh build over the same
// rows answers, and both what the row scan answers. Every sealed
// segment of the three indexed columns is sorted exactly once.
func TestIndexExtendEqualsFreshBuildEqualsScan(t *testing.T) {
	for _, tc := range []struct{ oldN, n int }{
		{120, 120},
		{120, 121},
		{0, 50},
		{ColumnBlockSize - 4, ColumnBlockSize + 10},
		{100, 3*ColumnBlockSize + 9},
	} {
		db := openDB(t)
		col, err := db.CreateCollection("c", lifecycleSchema())
		if err != nil {
			t.Fatal(err)
		}
		appendLifecycle(t, col, 0, tc.oldN)
		buildLifecycleIndexes(t, db, col)
		if got, want := sortedSegments(db), int64(3*(tc.oldN/ColumnBlockSize)); got != want {
			t.Fatalf("%d rows: BuildIndex sorted %d segments, want %d", tc.oldN, got, want)
		}
		appendLifecycle(t, col, tc.oldN, tc.n)
		snap, err := col.Current()
		if err != nil {
			t.Fatal(err)
		}
		extended := checkAgainstScan(t, fmt.Sprintf("%d->%d", tc.oldN, tc.n), snap)
		checkAgainstScan(t, "again", snap)
		if got, want := sortedSegments(db), int64(3*(tc.n/ColumnBlockSize)); got != want {
			t.Fatalf("%d->%d: %d segments sorted, want %d: each sealed segment once", tc.oldN, tc.n, got, want)
		}

		fdb := openDB(t)
		fcol, err := fdb.CreateCollection("c", lifecycleSchema())
		if err != nil {
			t.Fatal(err)
		}
		appendLifecycle(t, fcol, 0, tc.n)
		buildLifecycleIndexes(t, fdb, fcol)
		fsnap, _ := fcol.Current()
		if fresh := indexAnswers(t, fsnap, false); !reflect.DeepEqual(extended, fresh) {
			t.Fatalf("%d->%d: extended index answers diverge from a fresh build", tc.oldN, tc.n)
		}
	}
}

// TestSegmentOrdersSortedOnceAndShared: across 40 rounds of 64 appended
// rows, each followed by an equality and a range probe, every sealed
// segment of the two probed fields is sorted exactly once, and every
// later store holds the order pointer its segment got when it was
// sorted — also under a one-byte segment budget, which evicts every
// segment's data but no order.
func TestSegmentOrdersSortedOnceAndShared(t *testing.T) {
	for _, budget := range []int64{0, 1} {
		db := openDB(t)
		if budget > 0 {
			db.SetSegmentCache(NewSegmentCache(budget))
		}
		col, _ := db.CreateCollection("c", lifecycleSchema())
		appendLifecycle(t, col, 0, 1000)
		seen := map[*colSegment]*[]uint16{}
		for round := 0; round < 40; round++ {
			appendLifecycle(t, col, 1000+64*round, 1000+64*(round+1))
			snap, _ := col.Current()
			selectIDs(t, snap, Pred{Field: "label", V: StrV("hot")}, FilterIndex)
			selectIDs(t, snap, Pred{Field: "key", Range: true, Lo: 3, Hi: 9}, FilterIndex)
			sealed := snap.Len() / ColumnBlockSize
			if got := sortedSegments(db); got != int64(2*sealed) {
				t.Fatalf("budget %d, round %d: %d segments sorted, %d sealed in each of 2 columns", budget, round, got, sealed)
			}
			cs, _ := col.Columns()
			for _, field := range []string{"label", "key"} {
				c, _ := cs.Column(field)
				for _, sg := range c.segs[:sealed] {
					o := sg.ord.Load()
					if o == nil {
						t.Fatalf("budget %d, round %d: a sealed %s segment has no order", budget, round, field)
					}
					if prev, ok := seen[sg]; ok && prev != o {
						t.Fatalf("budget %d, round %d: a %s segment's order was replaced", budget, round, field)
					}
					seen[sg] = o
				}
			}
		}
		if len(seen) != 2*(3560/ColumnBlockSize) {
			t.Fatalf("budget %d: %d distinct sealed segments, want %d: a later store re-made one", budget, len(seen), 2*(3560/ColumnBlockSize))
		}
	}
}

// TestEqProbeAllocsIndependentOfSize: an equality probe whose value has
// the same hits in a collection of 4 sealed segments and in one of 16
// allocates the same bytes in both, once the orders are sorted — a
// probe binary-searches each segment in place and allocates only the
// hits it keeps.
func TestEqProbeAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations blur the count")
	}
	measure := func(segs int) uint64 {
		db := openDB(t)
		col, _ := db.CreateCollection("c", lifecycleSchema())
		n := segs * ColumnBlockSize
		for i := 0; i < n; i++ {
			// Every segment holds 0..999, so no zone map prunes the
			// probed 500, which only the first 8 rows hold.
			key := int64(i % 1000)
			switch {
			case i < 8:
				key = 500
			case key == 500:
				key = 501
			}
			p := &Patch{Ref: Ref{Source: "s"}, Meta: Metadata{"label": StrV("x"), "key": IntV(key), "f": FloatV(0)}}
			if err := col.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		snap, _ := col.Current()
		pred := Pred{Field: "key", V: IntV(500)}
		if got := len(selectIDs(t, snap, pred, FilterIndex)); got != 8 { // sorts every segment
			t.Fatalf("%d rows: %d hits, want 8", n, got)
		}
		probe := func() uint64 {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			s, err := snap.Select(t.Context(), pred, FilterIndex, Keep{})
			runtime.ReadMemStats(&b)
			if err != nil || s.N != 8 {
				t.Fatalf("probe: %d hits, %v", s.N, err)
			}
			return b.TotalAlloc - a.TotalAlloc
		}
		return min(probe(), probe(), probe())
	}
	small, large := measure(4), measure(16)
	if large > small {
		t.Fatalf("an 8-hit equality probe allocates %d B over 16 segments, %d B over 4", large, small)
	}
}

// TestEqProbeScansHitsAndTail: an equality probe over 12 sealed segments
// and a tail, 1,009 distinct ints spread over every segment (no zone map
// prunes), reads only its hits in the sealed segments and sweeps only
// the tail, where the column scan sweeps every row.
func TestEqProbeScansHitsAndTail(t *testing.T) {
	const tail = 300
	const n = 12*ColumnBlockSize + tail
	db := openDB(t)
	col, _ := db.CreateCollection("c", lifecycleSchema())
	for i := 0; i < n; i++ {
		p := &Patch{Ref: Ref{Source: "s"}, Meta: Metadata{"label": StrV("x"), "key": IntV(int64(i % 1009)), "f": FloatV(0)}}
		if err := col.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := col.Current()
	pred := Pred{Field: "key", V: IntV(200)} // in every segment and the tail
	ctx := t.Context()
	scan, err := snap.Select(ctx, pred, FilterColumnScan, Keep{Kind: KeepCount})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := snap.Select(ctx, pred, FilterIndex, Keep{Kind: KeepCount})
	if err != nil {
		t.Fatal(err)
	}
	if idx.N != scan.N || scan.Scan.RowsScanned != n || scan.Scan.Pruned != 0 {
		t.Fatalf("probe %d hits, column scan %d over %d rows scanned (%d pruned)", idx.N, scan.N, scan.Scan.RowsScanned, scan.Scan.Pruned)
	}
	if idx.Scan.RowsScanned > idx.N+tail || idx.Scan.Blocks != 13 || idx.Scan.Sorted != 12 {
		t.Fatalf("probe: %d rows scanned for %d hits and a %d-row tail; %d blocks, %d sorted", idx.Scan.RowsScanned, idx.N, tail, idx.Scan.Blocks, idx.Scan.Sorted)
	}
}

// TestStaleIndexPlansSeeAppends: an index built before the collection
// grew must serve every row through core's own planner path and through
// an equality probe per join key.
func TestStaleIndexPlansSeeAppends(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("dets", simpleSchema())
	left, _ := db.CreateCollection("l", simpleSchema())
	for i := 0; i < 50; i++ {
		col.Append(mkPatch("car", int64(i%12)))
		left.Append(mkPatch("player", int64(i%8)))
	}
	if _, err := db.BuildIndex(col, "label", IdxSorted); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildIndex(col, "frameno", IdxSorted); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 60; i++ {
		col.Append(mkPatch("car", int64(i%12)))
	}

	m, err := db.PlanFilter(col, "label", StrV("car"))
	if err != nil || m != FilterIndex {
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
		pred := Pred{Field: "frameno", V: v}
		ids, want := selectIDs(t, snap, pred, FilterIndex), selectIDs(t, snap, pred, FilterScan)
		if len(want) == 0 || !reflect.DeepEqual(ids, want) {
			t.Fatalf("frameno %d: index join %d rows over the grown collection, scan %d", v.Int(), len(ids), len(want))
		}
	}
}

// TestIndexReaderBehindAndCacheReload: a reader whose snapshot ends
// inside a segment the current store has sealed is answered without the
// newer rows, sorting nothing — that segment is swept up to the reader's
// last row — and a reopened database re-projects its columns, sorts
// their sealed segments anew on the first probes, and answers the same.
func TestIndexReaderBehindAndCacheReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dl.db")
	db := reopenDB(t, path)
	col, _ := db.CreateCollection("c", lifecycleSchema())
	appendLifecycle(t, col, 0, 1500)
	buildLifecycleIndexes(t, db, col)
	oldSnap, _ := col.Current()

	appendLifecycle(t, col, 1500, 2100)
	snap, _ := col.Current()
	checkAgainstScan(t, "current", snap)
	sorted := sortedSegments(db)
	if sorted != 3*2 {
		t.Fatalf("%d segments sorted, want 2 in each of 3 columns", sorted)
	}
	checkAgainstScan(t, "behind", oldSnap)
	checkAgainstScan(t, "current again", snap)
	if got := sortedSegments(db); got != sorted {
		t.Fatalf("a reader behind the store sorted %d segments", got-sorted)
	}

	appendLifecycle(t, col, 2100, 2101)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = reopenDB(t, path)
	col, _ = db.Collection("c")
	if !db.HasIndex(col, "label") || !db.HasIndex(col, "f") {
		t.Fatal("index declarations lost across the reopen")
	}
	snap, _ = col.Current()
	checkAgainstScan(t, "reloaded", snap)
	if got := sortedSegments(db); got != 3*2 {
		t.Fatalf("reloaded: %d segments sorted, want 2 in each of 3 columns", got)
	}
}

// TestStaleHandleProbeRebuilds: after a drop and re-create, an old
// *Collection handle still answers its own snapshot from its own
// columns' orders, and the re-created collection sorts and answers its
// own rows; neither sees the other's.
func TestStaleHandleProbeRebuilds(t *testing.T) {
	db := openDB(t)
	old, _ := db.CreateCollection("c", lifecycleSchema())
	appendLifecycle(t, old, 0, 2600)
	oldSnap, _ := old.Current()
	if err := db.DropCollection("c"); err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("c", lifecycleSchema())
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, col, 1000, 2100)
	snap, _ := col.Current()
	checkAgainstScan(t, "re-created", snap)
	checkAgainstScan(t, "old handle", oldSnap)

	appendLifecycle(t, col, 2100, 2110)
	snap, _ = col.Current()
	checkAgainstScan(t, "re-created after the old handle", snap)
	if got := sortedSegments(db); got != 3*(2+1) {
		t.Fatalf("%d segments sorted, want 3 columns of 2 old and 1 re-created sealed segments", got)
	}
}

// TestReopenedIndexKeepsVersionAndServesConcurrentProbes: a reopened
// database keeps its index declarations, and eight concurrent range
// probes — workers serving use_index range queries after a restart —
// race to sort the same segments: each answers the row scan's rows, and
// each segment's order is published, and counted, once. Appends then
// sort only the segments they seal.
func TestReopenedIndexKeepsVersionAndServesConcurrentProbes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dl.db")
	db := reopenDB(t, path)
	col, _ := db.CreateCollection("c", lifecycleSchema())
	appendLifecycle(t, col, 0, 4000)
	buildLifecycleIndexes(t, db, col)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := reopenDB(t, path)
	col2, _ := db2.Collection("c")
	for _, field := range lifecycleFields {
		if !db2.HasIndex(col2, field) {
			t.Fatalf("index on %s not declared after the reopen", field)
		}
	}
	snap, _ := col2.Current()
	pred := Pred{Field: "key", Range: true, Lo: 5, Hi: 30}
	want := selectIDs(t, snap, pred, FilterScan)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ids := selectIDs(t, snap, pred, FilterIndex); !reflect.DeepEqual(ids, want) {
				t.Errorf("concurrent range probe: %d ids, scan %d", len(ids), len(want))
			}
		}()
	}
	wg.Wait()
	if got := sortedSegments(db2); got != 3 {
		t.Fatalf("8 racing probes counted %d sorted segments, want the 3 sealed ones once", got)
	}
	checkAgainstScan(t, "reopened", snap)
	appendLifecycle(t, col2, 4000, 4200)
	snap, _ = col2.Current()
	checkAgainstScan(t, "reopened, extended", snap)
	if got := sortedSegments(db2); got != 3*4 {
		t.Fatalf("extend after reopen: %d segments sorted, want 4 in each of 3 columns", got)
	}
}
