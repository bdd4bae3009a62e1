package core

import (
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/exec"
)

// Tiered column-store tests: spill → evict → reload must be
// byte-identical to the purely in-memory store, zone-pruned scans must
// never decode a segment, reopened collections re-project their columns
// and persist none, and Extend allocation stays O(new rows) regardless of
// history length.

var tieredFields = []string{"label", "score", "rank", "clustered"}

// Every test in the package runs with dead scratches poisoned: a kernel
// reading a transient segment after its inner loop then diverges from
// the in-memory store (or indexes the dictionary out of range) wherever
// a byte-identity assertion looks.
func init() {
	scratchDead = func(d *segData) {
		for i := range d.ints {
			d.ints[i] = math.MinInt64 + 0x5a5a
		}
		for i := range d.floats {
			d.floats[i] = -0x5a5ap300
		}
		for i := range d.codes {
			d.codes[i] = math.MaxUint32
		}
	}
}

// tieredCollection is columnCollection with a segment cache installed
// before any column projects, so every sealed segment spills.
func tieredCollection(t testing.TB, rows int, budget int64) (*DB, *Collection, *SegmentCache) {
	t.Helper()
	db := openDB(t)
	sc := NewSegmentCache(budget)
	db.SetSegmentCache(sc)
	col, err := db.CreateCollection("col.dets", columnTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := col.Append(columnPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	return db, col, sc
}

// assertStoreMatchesMemory compares a tiered store against a fresh
// purely in-memory projection of the same snapshot: every column byte
// for byte, plus query-level agreement on each kernel.
func assertStoreMatchesMemory(t *testing.T, cs, mem *ColumnStore) {
	t.Helper()
	for _, f := range tieredFields {
		columnsEqual(t, f, cs, mem)
	}
	se, _, _ := cs.FilterEqStats("label", StrV("car"))
	sm, _, _ := mem.FilterEqStats("label", StrV("car"))
	if !reflect.DeepEqual(se, sm) {
		t.Fatalf("FilterEqStats diverges: %d vs %d rows", len(se), len(sm))
	}
	re, _, _ := cs.FilterRangeStats("score", 1.5, 6.25)
	rm, _, _ := mem.FilterRangeStats("score", 1.5, 6.25)
	if !reflect.DeepEqual(re, rm) {
		t.Fatalf("FilterRangeStats diverges: %d vs %d rows", len(re), len(rm))
	}
	te, _ := cs.TopK(nil, "score", true, 50)
	tm, _ := mem.TopK(nil, "score", true, 50)
	if !reflect.DeepEqual(te, tm) {
		t.Fatal("TopK diverges")
	}
	le, _ := cs.TopK(nil, "label", false, 40)
	lm, _ := mem.TopK(nil, "label", false, 40)
	if !reflect.DeepEqual(le, lm) {
		t.Fatal("TopK(label) diverges")
	}
}

// TestTieredStoreByteIdenticalAfterEvict: with a budget far below the
// column footprint, results before and after a full eviction are byte
// for byte the in-memory store's.
func TestTieredStoreByteIdenticalAfterEvict(t *testing.T) {
	const rows = 4*ColumnBlockSize + 200
	_, col, sc := tieredCollection(t, rows, 24<<10)
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	mem := newColumnStore(cs.at, nil)
	assertStoreMatchesMemory(t, cs, mem)
	if st := sc.Stats(); st.Spills == 0 {
		t.Fatalf("no segments spilled under a %d-byte budget: %+v", sc.Budget(), st)
	}
	sc.EvictAll()
	assertStoreMatchesMemory(t, cs, mem)
	st := sc.Stats()
	if st.Loads == 0 {
		t.Fatalf("post-eviction scans never reloaded a segment: %+v", st)
	}
	if st.LoadFaults != 0 {
		t.Fatalf("healthy store reported load faults: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("tight budget never evicted: %+v", st)
	}
}

// TestZonePrunedScanTouchesNoPages: after eviction, a predicate every
// zone map refutes completes with no segment load — the resident
// summaries alone answer it — while an unpruned predicate faults
// exactly the surviving segments back in, from their in-memory
// encodings.
func TestZonePrunedScanTouchesNoPages(t *testing.T) {
	const rows = 4 * ColumnBlockSize
	_, col, sc := tieredCollection(t, rows, 1<<20)
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cs.Column("clustered"); !ok {
		t.Fatal("clustered did not project")
	}
	sc.EvictAll()
	sel, st, ok := cs.FilterEqStats("clustered", IntV(99))
	if !ok || len(sel) != 0 {
		t.Fatalf("all-pruned predicate matched %d rows", len(sel))
	}
	if st.Pruned != st.Blocks || st.SegLoads != 0 {
		t.Fatalf("pruned scan stats: %+v", st)
	}

	// A surviving predicate decodes exactly its one segment.
	sel, st, _ = cs.FilterEqStats("clustered", IntV(2))
	if len(sel) != ColumnBlockSize || st.SegLoads != 1 {
		t.Fatalf("selective scan: %d rows, %d segment loads", len(sel), st.SegLoads)
	}

	// Float segments encode uncompressed (~8 KiB each). Decoding them
	// after an eviction reads their in-memory encodings.
	if _, ok := cs.Column("score"); !ok {
		t.Fatal("score did not project")
	}
	sc.EvictAll()
	if _, rst, ok := cs.FilterRangeStats("score", 5.0, 5.05); !ok || rst.SegLoads == 0 {
		t.Fatalf("range scan loaded no segments: %+v", rst)
	}
}

// TestTieredStoreReprojectsOnReopen: a reopened tiered collection
// projects its columns from the rows it loads and answers byte for byte
// what an in-memory store over the rows before the close answers, before
// and after a full eviction. No column copy persists: the directory
// holds the catalog and the collection's row log and nothing else.
func TestTieredStoreReprojectsOnReopen(t *testing.T) {
	const rows = 3*ColumnBlockSize + 100
	path := filepath.Join(t.TempDir(), "dl.db")
	db, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	db.SetSegmentCache(NewSegmentCache(24 << 10))
	col, err := db.CreateCollection("col.dets", columnTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := col.Append(columnPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tieredFields {
		cs.Column(f)
	}
	if _, err := db.BuildIndex(col, "label", IdxSorted); err != nil {
		t.Fatal(err)
	}
	mem := newColumnStore(cs.at, nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	sc2 := NewSegmentCache(24 << 10)
	db2.SetSegmentCache(sc2)
	col2, err := db2.Collection("col.dets")
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := col2.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(patchIDs(cs2.at.Patches()), patchIDs(mem.at.Patches())) {
		t.Fatalf("reopened %d rows: not the %d rows before the close, in order", cs2.at.Len(), mem.at.Len())
	}
	assertStoreMatchesMemory(t, cs2, mem)
	sc2.EvictAll()
	assertStoreMatchesMemory(t, cs2, mem)
	st := sc2.Stats()
	if st.Spills == 0 || st.Loads == 0 || st.LoadFaults != 0 {
		t.Fatalf("reprojected store: %+v, want spills and loads and no faults", st)
	}
	assertCatalogAndLogs(t, db2, 1)
}

// TestCorruptSpilledSegmentRebuilds: a segment whose encoding is
// unreadable is rebuilt from the row snapshot — a counted fault, never a
// wrong answer.
func TestCorruptSpilledSegmentRebuilds(t *testing.T) {
	const rows = 2 * ColumnBlockSize
	_, col, sc := tieredCollection(t, rows, 1<<20)
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	mem := newColumnStore(cs.at, nil)
	assertStoreMatchesMemory(t, cs, mem) // project + spill everything
	for _, f := range []string{"rank", "label"} {
		c, _ := cs.Column(f)
		garbage := []byte("garbage")
		c.segs[0].enc.Store(&garbage)
	}
	sc.EvictAll()
	assertStoreMatchesMemory(t, cs, mem)
	if st := sc.Stats(); st.LoadFaults == 0 {
		t.Fatalf("corrupt segments loaded without a fault: %+v", st)
	}
}

// TestSegmentCacheBudgetEvicts: a sequential sweep over a store larger
// than the budget keeps the resident set at or under budget and evicts
// along the way.
func TestSegmentCacheBudgetEvicts(t *testing.T) {
	const rows = 8 * ColumnBlockSize
	const budget = 20 << 10
	_, col, sc := tieredCollection(t, rows, budget)
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cs.TopK(nil, "rank", false, 10); !ok {
		t.Fatal("rank did not project")
	}
	st := sc.Stats()
	if st.ResidentBytes > budget {
		t.Fatalf("resident %d bytes over the %d budget", st.ResidentBytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatalf("sweep past the budget never evicted: %+v", st)
	}
}

// TestExtendAllocsIndependentOfHistory is the O(new-rows) regression
// guard: extending a 64-block store by the same suffix must allocate no
// more than extending a 1-block store — sealed history is shared by
// pointer, never copied.
func TestExtendAllocsIndependentOfHistory(t *testing.T) {
	measure := func(nblocks int) float64 {
		n := nblocks * ColumnBlockSize
		ps := make([]*Patch, n+64)
		for i := range ps {
			ps[i] = columnPatch(i)
			ps[i].ID = PatchID(i + 1)
		}
		all := snapshotOf(ps, 2)
		cs := newColumnStore(cut(all, n, 1), nil)
		for _, f := range tieredFields {
			cs.Column(f)
		}
		return testing.AllocsPerRun(20, func() {
			cs.Extend(all)
		})
	}
	small, large := measure(1), measure(64)
	if large > small+8 {
		t.Fatalf("Extend allocations grew with history: %.0f (1 block) -> %.0f (64 blocks)", small, large)
	}
}

// TestTieredConcurrentAppendScan hammers a spilled store with
// concurrent appends, scans and forced evictions (run under -race in
// CI): every reader must see a consistent snapshot and the final store
// must match a fresh in-memory projection.
func TestTieredConcurrentAppendScan(t *testing.T) {
	const base = 2 * ColumnBlockSize
	const extra = 600
	_, col, sc := tieredCollection(t, base, 16<<10)
	if _, err := col.Columns(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := base; i < base+extra; i++ {
			if err := col.Append(columnPatch(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				cs, err := col.Columns()
				if err != nil {
					t.Error(err)
					return
				}
				sel, _, _ := cs.FilterEqStats("label", StrV("car"))
				if len(sel) > cs.at.Len() {
					t.Errorf("selection larger than snapshot: %d > %d", len(sel), cs.at.Len())
					return
				}
				cs.TopK(nil, "score", true, 10)
				cs.FilterRangeStats("rank", math.Inf(-1), math.Inf(1))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sc.EvictAll()
			runtime.Gosched()
		}
	}()
	wg.Wait()
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if cs.at.Len() != base+extra {
		t.Fatalf("final snapshot %d rows, want %d", cs.at.Len(), base+extra)
	}
	assertStoreMatchesMemory(t, cs, newColumnStore(cs.at, nil))
}

// overBudgetStore builds a tiered collection whose float column "score"
// (and int column "rank", same segment size) is 4x the budget, with only
// the named fields projected, and an in-memory twin over the same rows.
func overBudgetStore(t testing.TB, fields ...string) (cs, mem *ColumnStore, sc *SegmentCache) {
	t.Helper()
	const rows = 16*ColumnBlockSize + 200
	budget := 4*segBytes(KindFloat, ColumnBlockSize) + 100
	_, col, sc := tieredCollection(t, rows, budget)
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		if _, ok := cs.Column(f); !ok {
			t.Fatalf("%s did not project", f)
		}
	}
	return cs, newColumnStore(cs.at, nil), sc
}

// scanCycle is one pass of the budgeted workload: a range filter over
// every segment of field, then a top-k over its selection (which spans
// every segment too). It fails the test on any divergence from mem.
func scanCycle(t testing.TB, cs, mem *ColumnStore, field string) {
	sel, _, _ := cs.FilterRangeStats(field, 1.5, 2.5)
	msel, _, _ := mem.FilterRangeStats(field, 1.5, 2.5)
	if len(sel) == 0 || !reflect.DeepEqual(sel, msel) {
		t.Fatalf("%s range filter diverges: %d vs %d rows", field, len(sel), len(msel))
	}
	top, _ := cs.TopK(sel, field, true, 10)
	mtop, _ := mem.TopK(msel, field, true, 10)
	if !reflect.DeepEqual(top, mtop) {
		t.Fatalf("%s top-k diverges: %v vs %v", field, top, mtop)
	}
}

// TestCyclicScanOverBudgetSettles is the thrash-cliff regression: a scan
// cycling over a column 4x the budget must settle on a fixed resident
// subset — no evictions from the second cycle on, the budget held, cold
// segments read transiently — with every result the in-memory store's.
func TestCyclicScanOverBudgetSettles(t *testing.T) {
	cs, mem, sc := overBudgetStore(t, "score")
	scanCycle(t, cs, mem, "score")
	settled := sc.Stats()
	for cycle := 2; cycle <= 3*reqCap; cycle++ { // long enough to cross several aging epochs
		scanCycle(t, cs, mem, "score")
		st := sc.Stats()
		if st.Evictions != settled.Evictions {
			t.Fatalf("cycle %d evicted: %d -> %d evictions", cycle, settled.Evictions, st.Evictions)
		}
		if st.ResidentBytes > st.Budget {
			t.Fatalf("cycle %d: resident %d bytes over the %d budget", cycle, st.ResidentBytes, st.Budget)
		}
	}
	st := sc.Stats()
	if st.ResidentSegments == 0 || st.Loads == settled.Loads {
		t.Fatalf("scan neither kept a resident subset nor loaded cold segments: %+v", st)
	}
	if cold := st.Loads - settled.Loads; st.TransientLoads-settled.TransientLoads != cold {
		t.Fatalf("settled scan admitted cold segments: %d loads, %d transient", cold, st.TransientLoads-settled.TransientLoads)
	}
	assertStoreMatchesMemory(t, cs, mem)
}

// TestOverBudgetScanAllocatesOnlySelection: once warm, the budgeted scan
// allocates what the in-memory scan allocates — the selection, the heap,
// the result — and under 512 B more per cold segment it reads.
func TestOverBudgetScanAllocatesOnlySelection(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	cs, mem, sc := overBudgetStore(t, "score")
	cycle := func(s *ColumnStore) func() {
		return func() {
			sel, _, _ := s.FilterRangeStats("score", 1.5, 2.5)
			s.TopK(sel, "score", true, 10)
		}
	}
	cycle(cs)() // settle the resident set and size the scratch
	if tiered, inmem := testing.AllocsPerRun(20, cycle(cs)), testing.AllocsPerRun(20, cycle(mem)); tiered > inmem+2 {
		t.Fatalf("budgeted scan makes %.0f allocations per cycle, in-memory %.0f", tiered, inmem)
	}
	const runs = 20
	bytesPer := func(fn func()) int64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&b)
		return int64(b.TotalAlloc-a.TotalAlloc) / runs
	}
	before := sc.Stats().Loads
	tiered, inmem := bytesPer(cycle(cs)), bytesPer(cycle(mem))
	cold := (sc.Stats().Loads - before) / runs
	if cold == 0 {
		t.Fatal("warm over-budget scan read no cold segment")
	}
	extra := (tiered - inmem) / cold
	t.Logf("%d B/cycle budgeted, %d B/cycle in-memory, %d cold segments/cycle: %d B per cold segment", tiered, inmem, cold, extra)
	if extra >= 512 {
		t.Fatalf("%d B per cold segment beyond the selection", extra)
	}
}

// TestColumnScanKeepsAllocateOnlyKeptRows: over a 100k-row store, a
// count, a first-n and a top-k column scan allocate what they keep and
// nothing that grows with their ~20k matches (80 KiB as a selection).
func TestColumnScanKeepsAllocateOnlyKeptRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows = 100_000
	ps := make([]*Patch, rows)
	for i := range ps {
		ps[i] = columnPatch(i)
	}
	snap := snapshotOf(ps, 1)
	cs := newColumnStore(snap, nil)
	for _, pred := range []Pred{{Field: "label", V: StrV("car")}, {Field: "score", Range: true, Lo: 1, Hi: 3}} {
		for _, keep := range []Keep{
			{Kind: KeepCount},
			{Kind: KeepFirst, N: 20},
			{Kind: KeepTop, N: 10, Field: "score"},
			{Kind: KeepTop, N: 10, Field: "rank", Desc: true},
		} {
			scan := func() int {
				k := newKeeper(keep, cs, snap)
				cs.scan(&pred, rows, &k, false)
				n, _ := k.result()
				return n
			}
			if n := scan(); n < rows/10 { // also projects the columns
				t.Fatalf("%+v matched %d rows: too few to tell", pred, n)
			}
			const runs = 20
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			for i := 0; i < runs; i++ {
				scan()
			}
			runtime.ReadMemStats(&b)
			if per := (b.TotalAlloc - a.TotalAlloc) / runs; per > 1<<10 {
				t.Fatalf("%+v keep %+v allocates %d B per scan", pred, keep, per)
			}
		}
	}
}

// TestResidentSetFollowsWorkloadShift: admission must not freeze the
// cache. When the scans move to another column, the old column's
// counters age away and the new column takes over the resident set
// within a number of cycles bounded by the counter cap, not by how long
// the old column had been hot.
func TestResidentSetFollowsWorkloadShift(t *testing.T) {
	cs, mem, sc := overBudgetStore(t, "score", "rank")
	for cycle := 0; cycle < 5*reqCap; cycle++ {
		scanCycle(t, cs, mem, "score")
	}
	resident := func(field string) (n int) {
		col, _ := cs.Column(field)
		for _, sg := range col.segs {
			if sg.enc.Load() != nil && sg.data.Load() != nil {
				n++
			}
		}
		return n
	}
	if resident("score") == 0 || resident("rank") != 0 {
		t.Fatalf("before the shift: %d score and %d rank segments resident", resident("score"), resident("rank"))
	}
	shifted := 0
	for resident("score") > 0 {
		if shifted++; shifted > reqCap {
			t.Fatalf("after %d cycles on rank the cache still holds %d score segments (%d rank)",
				shifted, resident("score"), resident("rank"))
		}
		scanCycle(t, cs, mem, "rank")
	}
	t.Logf("resident set moved from score to rank in %d cycles", shifted)
	if resident("rank") == 0 {
		t.Fatal("score left the cache but rank never entered it")
	}
	if st := sc.Stats(); st.ResidentBytes > st.Budget {
		t.Fatalf("resident %d bytes over the %d budget", st.ResidentBytes, st.Budget)
	}
}

// TestConcurrentBudgetedScansUnderAppends: eight goroutines scan three
// columns under a budget of a few segments while appends seal and spill
// new ones. Every kernel result must equal an in-memory projection of
// the snapshot it ran over; with released scratches poisoned (see init),
// a scratch shared between two readers or read after release cannot.
func TestConcurrentBudgetedScansUnderAppends(t *testing.T) {
	const base = 3 * ColumnBlockSize
	const extra = 2*ColumnBlockSize + 300
	_, col, sc := tieredCollection(t, base, 3*segBytes(KindFloat, ColumnBlockSize))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := base; i < base+extra; i++ {
			if err := col.Append(columnPatch(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				cs, err := col.Columns()
				if err != nil {
					t.Error(err)
					return
				}
				mem := newColumnStore(cs.at, nil)
				eq, _, _ := cs.FilterEqStats("label", StrV("bike"))
				meq, _, _ := mem.FilterEqStats("label", StrV("bike"))
				rg, _, _ := cs.FilterRangeStats("score", float64(w), float64(w)+1.5)
				mrg, _, _ := mem.FilterRangeStats("score", float64(w), float64(w)+1.5)
				top, _ := cs.TopK(rg, "rank", w%2 == 0, 25)
				mtop, _ := mem.TopK(mrg, "rank", w%2 == 0, 25)
				ltop, _ := cs.TopK(nil, "label", true, 7)
				mltop, _ := mem.TopK(nil, "label", true, 7)
				grp, _ := cs.TopK(nil, "rank", w%2 != 0, 25)
				mgrp, _ := mem.TopK(nil, "rank", w%2 != 0, 25)
				if !reflect.DeepEqual(eq, meq) || !reflect.DeepEqual(rg, mrg) || !reflect.DeepEqual(top, mtop) ||
					!reflect.DeepEqual(ltop, mltop) || !reflect.DeepEqual(grp, mgrp) {
					t.Errorf("scanner %d pass %d diverges from memory at %d rows", w, i, cs.at.Len())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := sc.Stats(); st.TransientLoads == 0 || st.ResidentBytes > st.Budget {
		t.Fatalf("scans never went through the scratch, or the budget broke: %+v", st)
	}
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesMemory(t, cs, newColumnStore(cs.at, nil))
}
