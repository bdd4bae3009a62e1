package core

// Columnar scan engine. The paper's query layer assumes selections and
// top-k over patch metadata are cheap relative to vision UDFs; with the
// row-at-a-time fallback every non-indexed filter pays a metadata lookup
// and a Pred.Match per patch. The ColumnStore lazily projects the
// collection's declared scalar fields from a snapshot into typed columnar
// form (int64 / float64 / dictionary-encoded strings), partitioned into
// fixed-size immutable segments carrying zone maps (min/max for numerics,
// a small distinct-set for low-cardinality strings). Vectorized kernels
// evaluate equality and range predicates segment-at-a-time, skipping
// segments the zone map proves empty, and hand each segment's matches to
// a consumer that keeps only what the query reads (see Keep); top-k
// runs directly over the arrays. Results are byte-identical to the
// row scan by construction: matches are emitted in row
// (snapshot) order, and top-k reproduces the stable sort's (value, row)
// order.
//
// A store is built over one immutable snapshot and carries its version;
// appends bump the collection version, so a reader comparing versions
// upgrades — exactly the invalidation discipline the serving layer's
// caches use (see Collection.Columns).
//
// Segments are the unit of sharing and of tiering. Because snapshots are
// prefix-stable and segments are fixed-size, an older store's sealed
// (full) segments — typed arrays, zone maps, dictionary codes — are
// exactly what a fresh build over the longer snapshot would produce for
// those rows. Extend therefore carries sealed segments over
// by pointer: no history memcpy at all, and the unsealed tail grows in
// place, projecting only the appended rows (see growTail); stale readers
// pin only the segments they still reference. The same immutability
// makes sealed segments spillable: with
// a segment cache attached (see segment.go) each keeps its compressed
// encoding through internal/codec, the resident summaries keep pruning
// exact, and the scan kernels decode surviving cold segments through a
// byte-budgeted cache — so a collection's decoded column footprint is
// bounded by the budget, not its history.
//
// The sorted index is part of the column too: a sealed
// segment's first index probe sorts its rows by (value, row) and keeps
// the order — 2 bytes a row, resident when the segment's data is evicted,
// shared by Extend with the segment. A probe runs the scan's steps
// with a binary search of that order where the scan sweeps the segment
// (see scan).

import (
	"cmp"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// ColumnBlockSize is the number of rows per zone-mapped segment. Small
// enough that a selective predicate skips real work on clustered data,
// large enough that the per-segment min/max test is noise.
const ColumnBlockSize = 1024

// ColumnStore holds the columnar projections of one collection snapshot.
// Columns materialize lazily per field on first use and are cached; the
// store itself is immutable once built and safe for concurrent use.
type ColumnStore struct {
	at    Snapshot
	cache *SegmentCache // nil: purely in-memory store

	mu   sync.RWMutex
	cols map[string]*Column
}

// newColumnStore builds an empty store over a snapshot whose sealed
// segments spill to sc (nil keeps the store purely in-memory). Columns
// project lazily on first access. The catalog passes the DB's
// SegmentCache here.
func newColumnStore(at Snapshot, sc *SegmentCache) *ColumnStore {
	return &ColumnStore{at: at, cache: sc, cols: make(map[string]*Column)}
}

func (cs *ColumnStore) covers() Snapshot {
	if cs == nil {
		return Snapshot{}
	}
	return cs.at
}

// zoneMap summarizes one segment of a column for predicate pruning.
type zoneMap struct {
	lo, hi int // row range [lo, hi)
	// Numeric bounds over the segment's rows.
	minI, maxI int64
	minF, maxF float64
	// codeSet is a presence bitset of dictionary codes < 64 in this segment
	// (string columns; valid while the dictionary holds at most 64 codes).
	codeSet uint64
}

// Column is one metadata field projected over the snapshot: a sequence
// of fixed-size immutable segments, each a typed array summarized by an
// always-resident zone map. A column is a field the snapshot's schema
// declares as int, float or string, in that kind: every committed row
// holds it, so every row has a value. Any other field stays row-only.
// Sealed segments are shared by pointer with older and newer stores over
// the same collection, and — when a segment cache is attached — may have
// their data dropped from memory and decoded again on demand.
type Column struct {
	kind    ValueKind
	n       int
	field   string
	rows    *RowTable // the snapshot's rows (rebuild source if a segment's encoding is unreadable)
	cache   *SegmentCache
	segs    []*colSegment
	dict    []string
	dictIdx map[string]uint32 // value -> code (built during projection)
	// sharedDict marks dict/dictIdx as borrowed from an older column;
	// the first genuinely new string clones both before appending.
	sharedDict bool
}

// Kind reports the column's uniform value kind.
func (c *Column) Kind() ValueKind { return c.kind }

// Blocks reports the zone-mapped segment count (testing and EXPLAIN).
func (c *Column) Blocks() int { return len(c.segs) }

// segReader hands one kernel call its column's segment data, one
// segment at a time. Resident data is shared and immutable. A cold
// segment that does not earn residency decodes into the reader's pooled
// scratch, which the next rows call overwrites and close returns to the
// pool — so a kernel finishes one segment's inner loop before asking
// for the next, and keeps values, never slices, past it.
type segReader struct {
	col *Column
	scr *segData
}

// rows returns sg's row data, decoding it from its encoding when
// evicted (st, when non-nil, counts those loads). For an in-memory
// store this is two atomic loads.
func (r *segReader) rows(sg *colSegment, st *ScanStats) *segData {
	if r.scr != nil && scratchDead != nil {
		scratchDead(r.scr)
	}
	d := sg.data.Load()
	enc := sg.enc.Load()
	if enc == nil {
		return d // never tracked by a cache: always resident
	}
	n := r.col.cache.request(sg)
	if d != nil {
		return d
	}
	return r.load(sg, *enc, n, st)
}

// close returns the scratch, if the call needed one, to the pool.
func (r *segReader) close() {
	if r.scr != nil {
		if scratchDead != nil {
			scratchDead(r.scr)
		}
		scratchPool.Put(r.scr)
	}
}

// load decodes an evicted segment, requested n times before, from its
// encoding enc: into fresh arrays published on the segment when the
// cache admits it, else into the scratch. A corrupt encoding falls back
// to re-projecting the rows from the resident snapshot (a counted fault).
func (r *segReader) load(sg *colSegment, enc []byte, n uint64, st *ScanStats) *segData {
	c, sc := r.col, r.col.cache
	if r.scr == nil {
		r.scr = scratchPool.Get().(*segData)
	}
	size := segBytes(c.kind, sg.rows())
	d, resident := r.scr, sc.admits(size, n)
	if resident {
		d = new(segData)
	}
	if err := decodeSegDataInto(d, c.kind, sg.rows(), enc); err == nil {
		sc.loads.Add(1)
	} else {
		sc.loadFaults.Add(1)
		d = c.rebuildSeg(sg)
	}
	if st != nil {
		st.SegLoads++
	}
	if !resident {
		sc.transient.Add(1)
		if st != nil {
			st.SegTransient++
		}
		return d
	}
	if sg.data.CompareAndSwap(nil, d) {
		sc.insert(sg, size)
		return d
	}
	if w := sg.data.Load(); w != nil {
		return w // another loader won; adopt its copy
	}
	return d // winner already evicted again; our copy is still valid
}

// rebuildSeg re-projects a segment's rows from the resident snapshot —
// the recovery path when a segment's encoding is unreadable. It is
// deterministic and lock-free (see fill).
func (c *Column) rebuildSeg(sg *colSegment) *segData {
	d := newSegData(c.kind, sg.rows())
	c.fill(d, sg.zone.lo, sg.zone.lo, sg.zone.hi)
	return d
}

// Column returns the projection of field, building and caching it on
// first use. ok is false when the snapshot's schema does not declare
// field as int, float or string.
func (cs *ColumnStore) Column(field string) (*Column, bool) {
	cs.mu.RLock()
	col, cached := cs.cols[field]
	cs.mu.RUnlock()
	if cached {
		return col, true
	}
	f := cs.at.col.schema.FieldNamed(field)
	if f == nil || f.Kind != KindInt && f.Kind != KindFloat && f.Kind != KindStr {
		return nil, false
	}
	col = projectColumn(cs.at, field, f.Kind)
	col.cache = cs.cache
	cs.cache.spill(col)
	cs.mu.Lock()
	if prev, raced := cs.cols[field]; raced {
		col = prev // another projector won; keep one canonical column
	} else {
		cs.cols[field] = col
	}
	cs.mu.Unlock()
	return col, true
}

// ExtendStats is one incremental extension's segment accounting: of the
// old store's TotalBlocks (summed over its projected columns),
// ReusedBlocks sealed segments were carried over by pointer — arrays,
// zone maps and dictionary codes untouched; only the remainder (the
// partial tail segment per column) was grown by the appended rows.
type ExtendStats struct {
	Columns      int // projected columns carried into the new store
	ReusedBlocks int // sealed old segments shared verbatim
	TotalBlocks  int // all old segments (shared + grown tails)
}

// Extend builds the store for a longer snapshot that has this store's
// snapshot as a prefix (the caller must guarantee the prefix property;
// Collection.Columns checks it). Every column already projected here is
// carried forward: sealed (full) segments are shared by pointer — no
// copy of any kind — and only the appended rows project, into the old
// tail's spare room and new segments, so the result is
// indistinguishable from a fresh
// store over at with the same columns accessed, at O(appended rows)
// cost. The receiver is not mutated and stays valid for readers still
// holding it; columns never projected on the old store stay lazy on the
// new one.
func (cs *ColumnStore) Extend(at Snapshot) (*ColumnStore, ExtendStats) {
	next := newColumnStore(at, cs.cache)
	oldN := cs.at.Len()
	var st ExtendStats
	cs.mu.RLock()
	carried := maps.Clone(cs.cols)
	cs.mu.RUnlock()
	for field, col := range carried {
		ext := extendColumn(col, at, oldN)
		next.cols[field] = ext
		st.Columns++
		st.ReusedBlocks += oldN / ColumnBlockSize
		st.TotalBlocks += len(col.segs)
		cs.cache.spill(ext) // newly sealed tail segments spill
	}
	return next, st
}

// extendColumn grows one projected column over the appended suffix rows:
// sealed segments share by pointer, the old tail segment grows by the
// rows that fill it (see growTail), and the rest project fresh.
func extendColumn(old *Column, at Snapshot, oldN int) *Column {
	n := at.Len()
	sealed := oldN / ColumnBlockSize
	col := &Column{
		kind:       old.kind,
		n:          n,
		field:      old.field,
		rows:       at.tab,
		cache:      old.cache,
		dict:       old.dict,
		dictIdx:    old.dictIdx,
		sharedDict: true,
		segs:       make([]*colSegment, 0, (n+ColumnBlockSize-1)/ColumnBlockSize),
	}
	col.segs = append(col.segs, old.segs[:sealed]...)
	from := sealed * ColumnBlockSize
	if sealed < len(old.segs) {
		from = col.growTail(old.segs[sealed], n)
	}
	col.appendRows(from, n)
	return col
}

// growTail appends to c.segs the old unsealed tail segment grown by the
// rows after it, up to the block's end or row n, and returns the row it
// stops at. The first extension of tail claims its arrays' spare room
// and writes only past the tail's rows, where no reader of tail looks;
// an exact-sized tail — one a projection made — or a sibling extension
// that loses the claim copies the tail's rows into arrays of
// ColumnBlockSize capacity, so every later extension of the result
// appends in place. The zone map merges the tail's with the added
// values.
func (c *Column) growTail(tail *colSegment, n int) int {
	lo, mid := tail.zone.lo, tail.zone.hi
	hi := min(lo+ColumnBlockSize, n)
	d := tail.data.Load().grow(c.kind, hi-lo, tail.grown.CompareAndSwap(false, true))
	c.fill(d, lo, mid, hi)
	sg := &colSegment{zone: tail.zone, sealed: hi-lo == ColumnBlockSize}
	sg.zone.hi = hi
	sg.zone.widen(c.kind, d, mid-lo)
	sg.data.Store(d)
	c.segs = append(c.segs, sg)
	return hi
}

// projectColumn builds the segmented projection of one field of at's
// rows, declared with kind.
func projectColumn(at Snapshot, field string, kind ValueKind) *Column {
	n := at.Len()
	col := &Column{
		kind:    kind,
		n:       n,
		field:   field,
		rows:    at.tab,
		dictIdx: make(map[string]uint32),
		segs:    make([]*colSegment, 0, (n+ColumnBlockSize-1)/ColumnBlockSize),
	}
	col.appendRows(0, n)
	return col
}

// appendRows projects rows [from, n) of c.rows into fresh,
// exact-sized segments appended to c.segs (from must be
// ColumnBlockSize-aligned).
func (c *Column) appendRows(from, n int) {
	for lo := from; lo < n; lo += ColumnBlockSize {
		hi := min(lo+ColumnBlockSize, n)
		sg := &colSegment{zone: zoneMap{lo: lo, hi: hi}, sealed: hi-lo == ColumnBlockSize}
		d := newSegData(c.kind, hi-lo)
		c.fill(d, lo, lo, hi)
		sg.computeZone(c.kind, d)
		sg.data.Store(d)
		c.segs = append(c.segs, sg)
	}
}

// fill reads rows [lo, hi) of the field into d, one segment's arrays
// whose first row is base.
// Dictionary codes assign in first-appearance order, so projecting rows
// in ascending order reproduces a fresh full projection's codes exactly;
// a dictionary borrowed from an older column clones copy-on-write
// before the first genuinely new string. A row already projected never
// adds a code, so re-filling a segment (rebuildSeg) only reads the
// dictionary and needs no lock.
func (c *Column) fill(d *segData, base, lo, hi int) {
	if lo == hi {
		return
	}
	f := c.rows.fieldReader(c.field)
	for i := lo; i < hi; i++ {
		v, _ := f.get(i)
		switch j := i - base; c.kind {
		case KindInt:
			d.ints[j] = v.Int()
		case KindFloat:
			d.floats[j] = v.Float()
		case KindStr:
			d.codes[j] = c.addCode(v.Str())
		}
	}
}

// addCode returns s's dictionary code, allocating the next code on first
// appearance. A dictionary shared with an older column is cloned before
// its first mutation, so racing extends off one store never interfere.
func (c *Column) addCode(s string) uint32 {
	if code, ok := c.dictIdx[s]; ok {
		return code
	}
	if c.sharedDict {
		c.dict = append([]string(nil), c.dict...)
		idx := make(map[string]uint32, len(c.dictIdx)+1)
		for k, v := range c.dictIdx {
			idx[k] = v
		}
		c.dictIdx = idx
		c.sharedDict = false
	}
	code := uint32(len(c.dict))
	c.dictIdx[s] = code
	c.dict = append(c.dict, s)
	return code
}

// ---------------------------------------------------------- predicates ----

// ScanStats reports one columnar predicate evaluation's pruning work:
// how many zone-mapped segments the column holds, how many the zone maps
// skipped, how many rows the surviving segments actually swept (an index
// probe counts the hits it read of a sorted segment), how many cold
// segments had to be decoded from their encodings, and how many segment
// orders the call sorted.
type ScanStats struct {
	Blocks       int // zone-mapped segments in the column
	Pruned       int // segments skipped by zone-map/dictionary pruning
	RowsScanned  int // rows swept in unpruned segments
	SegLoads     int // evicted segments decoded from their encodings
	SegTransient int // of SegLoads: read through the scratch, not admitted to the cache
	Sorted       int // sealed segments whose sort order the call built
}

// Add accumulates o into s (aggregating the fragments of one query).
func (s *ScanStats) Add(o ScanStats) {
	s.Blocks += o.Blocks
	s.Pruned += o.Pruned
	s.RowsScanned += o.RowsScanned
	s.SegLoads += o.SegLoads
	s.SegTransient += o.SegTransient
	s.Sorted += o.Sorted
}

// FilterEqStats evaluates field == v over every row of the store into a
// selection index list in row order, skipping segments whose zone map
// proves no row can match, and reports the scan's pruning statistics. ok
// is false when the field has no column (caller falls back to the row
// scan) — a kind mismatch between the column and the constant is a
// valid (empty) result, mirroring Value.Equal.
func (cs *ColumnStore) FilterEqStats(field string, v Value) ([]int32, ScanStats, bool) {
	return cs.filterAll(Pred{Field: field, V: v})
}

// FilterRangeStats evaluates lo <= field < hi (numeric widening,
// matching Pred.Match) like FilterEqStats. String columns return an
// empty selection, like the row predicate (AsFloat yields NaN, which
// fails both bounds).
func (cs *ColumnStore) FilterRangeStats(field string, lo, hi float64) ([]int32, ScanStats, bool) {
	return cs.filterAll(Pred{Field: field, Range: true, Lo: lo, Hi: hi})
}

func (cs *ColumnStore) filterAll(pred Pred) ([]int32, ScanStats, bool) {
	var k keeper
	st, ok := cs.scan(&pred, cs.at.Len(), &k, false)
	return k.sel, st, ok
}

// scan runs pred over the store's first n rows — the caller's snapshot,
// which the store may have outgrown — and folds each segment's matches
// into k as one ascending block. Pruning tests run against the resident
// zone maps before any segment data is touched, so a pruned segment is
// never decoded. With indexed, a sealed segment inside the snapshot is
// binary-searched through its sort order instead of swept; the rest —
// the unsealed tail, and rows past the snapshot — are swept either way.
// ok is false, with k untouched, when the field has no column.
func (cs *ColumnStore) scan(pred *Pred, n int, k *keeper, indexed bool) (ScanStats, bool) {
	var st ScanStats
	col, ok := cs.Column(pred.Field)
	if !ok {
		return st, false
	}
	segs := col.segs[:(n+ColumnBlockSize-1)/ColumnBlockSize]
	st.Blocks = len(segs)
	m, ok := compileMatcher(pred, col)
	if !ok {
		st.Pruned = st.Blocks
		return st, true
	}
	rd := segReader{col: col}
	defer rd.close()
	var blk [ColumnBlockSize]int32
	for _, sg := range segs {
		z := &sg.zone
		if m.skip(z) {
			st.Pruned++
			continue
		}
		d := rd.rows(sg, &st)
		var c int
		if indexed && sg.sealed && z.hi <= n {
			c = m.probe(&blk, d, col.order(sg, d, &st), z.lo)
			st.RowsScanned += c
		} else {
			rows := min(z.hi, n) - z.lo
			st.RowsScanned += rows
			c = m.match(&blk, d, z.lo, rows)
		}
		if c > 0 {
			k.fold(blk[:c], col, d)
		}
	}
	return st, true
}

// order returns sealed segment sg's sort order: its row offsets sorted
// by (value, row) — strings by dictionary code, floats as cmp.Compare
// orders them (NaNs first, -0 equal to +0). The first caller sorts d,
// the segment's data, and publishes the order like a loader publishes
// data; a racing sorter adopts the winner's, so st counts each order
// once.
func (c *Column) order(sg *colSegment, d *segData, st *ScanStats) []uint16 {
	if o := sg.ord.Load(); o != nil {
		return *o
	}
	var o []uint16
	switch c.kind {
	case KindInt:
		o = sortedOffsets(d.ints)
	case KindFloat:
		o = sortedOffsets(d.floats)
	default:
		o = sortedOffsets(d.codes)
	}
	if !sg.ord.CompareAndSwap(nil, &o) {
		return *sg.ord.Load()
	}
	st.Sorted++
	return o
}

// sortSealed sorts every sealed segment that has no order yet and
// returns how many it sorted.
func (c *Column) sortSealed() int {
	var st ScanStats
	rd := segReader{col: c}
	defer rd.close()
	for _, sg := range c.segs {
		if sg.sealed && sg.ord.Load() == nil {
			c.order(sg, rd.rows(sg, &st), &st)
		}
	}
	return st.Sorted
}

func sortedOffsets[T cmp.Ordered](vals []T) []uint16 {
	o := make([]uint16, len(vals))
	for j := range o {
		o[j] = uint16(j)
	}
	slices.SortFunc(o, func(a, b uint16) int { return cmp.Or(cmp.Compare(vals[a], vals[b]), cmp.Compare(a, b)) })
	return o
}

// matcher is a predicate compiled against one column: which match kernel
// runs and the constant it compares.
type matcher struct {
	kind    ValueKind
	rng     bool
	i       int64
	f       float64
	code    uint32
	lo, hi  float64
	codeSet bool // string equality: zone-map code bitsets can rule segments out
}

// compileMatcher resolves pred against col. ok is false when no row can
// match: an equality constant of another kind (Value.Equal is false
// across kinds), a string absent from the dictionary, or a range over
// strings (AsFloat yields NaN, which fails both bounds).
func compileMatcher(pred *Pred, col *Column) (matcher, bool) {
	m := matcher{kind: col.kind, rng: pred.Range, lo: pred.Lo, hi: pred.Hi, i: pred.V.Int(), f: pred.V.Float()}
	switch {
	case pred.Range:
		return m, col.kind != KindStr
	case pred.V.Kind != col.kind:
		return m, false
	case col.kind == KindStr:
		code, ok := col.dictIdx[pred.V.Str()]
		m.code, m.codeSet = code, len(col.dict) <= 64 && code < 64
		return m, ok
	}
	return m, true
}

// skip reports whether a segment's zone map proves none of its rows
// matches.
func (m *matcher) skip(z *zoneMap) bool {
	switch {
	case m.rng && m.kind == KindInt:
		return float64(z.maxI) < m.lo || float64(z.minI) >= m.hi
	case m.rng:
		return z.maxF < m.lo || z.minF >= m.hi
	case m.kind == KindInt:
		return m.i < z.minI || m.i > z.maxI
	case m.kind == KindFloat:
		return m.f < z.minF || m.f > z.maxF
	}
	return m.codeSet && z.codeSet&(1<<m.code) == 0
}

// match runs the predicate's kernel over a segment's first rows rows and
// returns how many matched, written to blk as global rows (base + j).
func (m *matcher) match(blk *[ColumnBlockSize]int32, d *segData, base, rows int) int {
	switch {
	case m.rng && m.kind == KindInt:
		return matchRange(blk, d.ints[:rows], base, m.lo, m.hi)
	case m.rng:
		return matchRange(blk, d.floats[:rows], base, m.lo, m.hi)
	case m.kind == KindInt:
		return matchEq(blk, d.ints[:rows], base, m.i)
	case m.kind == KindFloat:
		return matchEq(blk, d.floats[:rows], base, m.f)
	}
	return matchEq(blk, d.codes[:rows], base, m.code)
}

// probe is match for a sealed segment through its sort order ord.
func (m *matcher) probe(blk *[ColumnBlockSize]int32, d *segData, ord []uint16, base int) int {
	switch {
	case m.rng && m.kind == KindInt:
		return probeRange(blk, d.ints, ord, base, m.lo, m.hi)
	case m.rng:
		return probeRange(blk, d.floats, ord, base, m.lo, m.hi)
	case m.kind == KindInt:
		return probeEq(blk, d.ints, ord, base, m.i)
	case m.kind == KindFloat:
		return probeEq(blk, d.floats, ord, base, m.f)
	}
	return probeEq(blk, d.codes, ord, base, m.code)
}

// The match kernels, one instance per array type: a typed-array sweep
// with no switch inside, rows addressed locally (global row = base + j).
// They are branch-free: every row writes its global row at blk[c], and c
// advances by the predicate's 0 or 1 (b2i, a SETcc), so random data costs
// no mispredicted jumps; only an equality that keeps almost nothing ran
// faster with an if. A range tests both bounds without &&'s jump, and
// the mask on c (c <= j < ColumnBlockSize) drops blk's bounds check. The
// probe kernels find the same rows by binary search of a sealed
// segment's order.

func matchEq[T int64 | float64 | uint32](blk *[ColumnBlockSize]int32, vals []T, base int, v T) int {
	c := 0
	for j, x := range vals[:min(len(vals), ColumnBlockSize)] {
		blk[c&(ColumnBlockSize-1)] = int32(base + j)
		c += b2i(x == v)
	}
	return c
}

func matchRange[T int64 | float64](blk *[ColumnBlockSize]int32, vals []T, base int, lo, hi float64) int {
	c := 0
	for j, x := range vals[:min(len(vals), ColumnBlockSize)] {
		f := float64(x)
		blk[c&(ColumnBlockSize-1)] = int32(base + j)
		c += b2i(f >= lo) & b2i(f < hi)
	}
	return c
}

// b2i is 1 for true and 0 for false; the compiler emits a SETcc, no jump.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// probeEq writes the run of ord whose values cmp.Compare equal to v —
// exactly the x == v of matchEq, but for a NaN v, which equals nothing.
// Ties keep row order, so the run is ascending.
func probeEq[T int64 | float64 | uint32](blk *[ColumnBlockSize]int32, vals []T, ord []uint16, base int, v T) int {
	if math.IsNaN(float64(v)) {
		return 0
	}
	lo := sort.Search(len(ord), func(i int) bool { return cmp.Compare(vals[ord[i]], v) >= 0 })
	hi := sort.Search(len(ord), func(i int) bool { return cmp.Compare(vals[ord[i]], v) > 0 })
	for c, j := range ord[lo:hi] {
		blk[c] = int32(base + int(j))
	}
	return hi - lo
}

// probeRange writes the rows matchRange keeps: past the NaNs that sort
// first and match no bound, float64(x) >= lo and float64(x) < hi each
// flip once along the order, since the int widening never decreases.
// The run between the flips is in value order; a bitmap puts it back
// in row order.
func probeRange[T int64 | float64](blk *[ColumnBlockSize]int32, vals []T, ord []uint16, base int, lo, hi float64) int {
	nan := sort.Search(len(ord), func(i int) bool { return !math.IsNaN(float64(vals[ord[i]])) })
	rest := ord[nan:]
	from := sort.Search(len(rest), func(i int) bool { return float64(vals[rest[i]]) >= lo })
	to := sort.Search(len(rest), func(i int) bool { return !(float64(vals[rest[i]]) < hi) })
	if from >= to {
		return 0
	}
	var set [ColumnBlockSize / 64]uint64
	for _, j := range rest[from:to] {
		set[j/64] |= 1 << (j % 64)
	}
	c := 0
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			blk[c] = int32(base + 64*w + bits.TrailingZeros64(word))
			c++
		}
	}
	return c
}

// Materialize resolves a selection list to new committed rows,
// preserving row order (the same rows, same order, the row scan would
// produce): Snapshot.Materialize of the store's snapshot. The
// benchmark harness's traced probes are its only caller; ROADMAP item
// 25 deletes it.
func (cs *ColumnStore) Materialize(sel []int32) []*Patch { return cs.at.Materialize(sel) }

// --------------------------------------------------------------- top-k ----

// TopK returns the selection of the k smallest (asc) or largest (desc)
// rows by field, ordered exactly as a stable sort of the input would
// order them (ties resolve in row order). sel is the candidate row set
// in row order; nil means all rows. ok is false when the field has no
// column.
func (cs *ColumnStore) TopK(sel []int32, field string, desc bool, k int) ([]int32, bool) {
	if _, ok := cs.Column(field); !ok {
		return nil, false
	}
	n := len(sel)
	if sel == nil {
		n = cs.at.Len()
	}
	if k = min(k, n); k <= 0 {
		return []int32{}, true
	}
	t := newTopKeep(cs, Snapshot{}, field, desc, k)
	var blk [ColumnBlockSize]int32
	for lo := 0; lo < n; {
		// One block per segment: the next segment's rows, or sel's
		// (ascending) run of rows in one segment.
		block := blk[:min(ColumnBlockSize, n-lo)]
		if sel == nil {
			for j := range block {
				block[j] = int32(lo + j)
			}
		} else {
			hi := lo + 1
			for hi < n && sel[hi]/ColumnBlockSize == sel[lo]/ColumnBlockSize {
				hi++
			}
			block = sel[lo:hi]
		}
		t.offer(block, nil, nil)
		lo += len(block)
	}
	return t.rows(), true
}

// topKeep is the top-k consumer: a bounded heap of the k best candidates
// offered so far. With a column for the order-by field, each candidate
// carries its sort value copied out of the column segment, so the heap
// outlives the segment data and the scan holds one segment at a time;
// without one, candidates compare their rows' own values. A topKeep
// comes from topKeeps and goes back to it in rows.
type topKeep struct {
	col  *Column // the order-by field's column; nil: compare row values
	rd   segReader
	heap topHeap[topEntry]

	// Without a column: the rows and the field that order them, and a
	// view of each of two rows compared.
	snap   Snapshot
	field  string
	desc   bool
	va, vb Patch
}

// topEntry is one top-k candidate: its row and, with a column, its sort
// value.
type topEntry struct {
	row int32
	i   int64 // int value, or dictionary code
	f   float64
}

// topKeeps recycles top-k consumers, each with its heap's before bound
// once, so a top-k allocates only the row list rows returns. A heap
// longer than maxPooledTopK entries is dropped on release: the pool
// holds only small objects.
var topKeeps = sync.Pool{New: func() any {
	t := new(topKeep)
	t.heap.before = t.before
	return t
}}

// maxPooledTopK is the largest heap capacity a released topKeep keeps.
const maxPooledTopK = 256

// newTopKeep returns the consumer keeping the k (> 0) first rows of a
// stable sort by field, ties in row order. It orders by cs's column for
// field when there is one, else by the rows of snap (CompareBy: missing
// values order as the zero Value, before every value ascending, after
// every value descending).
func newTopKeep(cs *ColumnStore, snap Snapshot, field string, desc bool, k int) *topKeep {
	t := topKeeps.Get().(*topKeep)
	t.heap.k = k
	if cap(t.heap.h) < k {
		t.heap.h = make([]topEntry, 0, k)
	}
	if cs != nil {
		t.col, _ = cs.Column(field)
	}
	if t.col == nil {
		t.snap, t.field = snap, field
	}
	t.rd.col, t.desc = t.col, desc
	return t
}

// before is the heap's strict order: Value.Compare on the column values
// (or, without a column, CompareBy on the rows), reversed when desc,
// ties in row order.
func (t *topKeep) before(a, b topEntry) bool {
	col := t.col
	if col == nil {
		t.snap.tab.View(int(a.row), &t.va)
		t.snap.tab.View(int(b.row), &t.vb)
		if c := CompareBy(&t.va, &t.vb, t.field, t.desc); c != 0 {
			return c < 0
		}
		return a.row < b.row
	}
	var less, greater bool
	switch col.kind {
	case KindInt:
		less, greater = a.i < b.i, a.i > b.i
	case KindFloat:
		c := cmp.Compare(a.f, b.f) // a NaN first, as Value.Compare orders it
		less, greater = c < 0, c > 0
	case KindStr:
		sa, sb := col.dict[a.i], col.dict[b.i]
		less, greater = sa < sb, sa > sb
	}
	if t.desc {
		less, greater = greater, less
	}
	if less {
		return true
	}
	if greater {
		return false
	}
	return a.row < b.row
}

// offer folds one block of candidate rows, ascending and all in one
// segment. pd is that segment's data of column pc when the caller holds
// it already — the filter's column — so a top-k ordered by the filtered
// field reads each segment once.
func (t *topKeep) offer(rows []int32, pc *Column, pd *segData) {
	if t.col == nil {
		for _, r := range rows {
			t.heap.offer(topEntry{row: r})
		}
		return
	}
	si := int(rows[0]) / ColumnBlockSize
	d := pd
	if pc != t.col {
		d = t.rd.rows(t.col.segs[si], nil)
	}
	base, kind := si*ColumnBlockSize, t.col.kind
	for _, r := range rows {
		e := topEntry{row: r}
		switch j := int(r) - base; {
		case kind == KindInt:
			e.i = d.ints[j]
		case kind == KindFloat:
			e.f = d.floats[j]
		default:
			e.i = int64(d.codes[j])
		}
		t.heap.offer(e)
	}
}

// rows returns the kept rows in order, releases the segment reader and
// puts t back in topKeeps: t is spent afterwards.
func (t *topKeep) rows() []int32 {
	t.rd.close()
	top := t.heap.sorted()
	out := make([]int32, len(top))
	for i, e := range top {
		out[i] = e.row
	}
	h := top[:0]
	if cap(h) > maxPooledTopK {
		h = nil
	}
	before := t.heap.before
	*t = topKeep{heap: topHeap[topEntry]{h: h, before: before}}
	topKeeps.Put(t)
	return out
}
