package core

// Columnar scan engine. The paper's query layer assumes selections and
// top-k over patch metadata are cheap relative to vision UDFs; with the
// row-at-a-time fallback every non-indexed filter pays a metadata lookup
// and a Pred.Match per patch. The ColumnStore lazily projects hot metadata fields from a
// collection snapshot into typed columnar form (int64 / float64 /
// dictionary-encoded strings, plus a null bitmap), partitioned into
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
// (full) segments — typed arrays, zone maps, dictionary codes, null
// bitmaps — are exactly what a fresh build over the longer snapshot would
// produce for those rows. Extend therefore carries sealed segments over
// by pointer: no history memcpy at all, O(appended rows) re-projection
// for the tail, and stale readers pin only the segments they still
// reference. The same immutability makes sealed segments spillable: with
// a segment cache attached (see segment.go) each keeps its compressed
// encoding through internal/codec, the resident summaries keep pruning
// exact, and the scan kernels decode surviving cold segments through a
// byte-budgeted cache — so a collection's decoded column footprint is
// bounded by the budget, not its history.

import "sync"

// ColumnBlockSize is the number of rows per zone-mapped segment. Small
// enough that a selective predicate skips real work on clustered data,
// large enough that the per-segment min/max test is noise.
const ColumnBlockSize = 1024

// ColumnStore holds the columnar projections of one collection snapshot.
// Columns materialize lazily per field on first use and are cached; the
// store itself is immutable once built and safe for concurrent use.
type ColumnStore struct {
	patches []*Patch
	version uint64
	cache   *SegmentCache // nil: purely in-memory store

	mu   sync.RWMutex
	cols map[string]*Column
}

// NewColumnStore builds an empty in-memory store over a snapshot.
// Columns project lazily on first access.
func NewColumnStore(patches []*Patch, version uint64) *ColumnStore {
	return newColumnStore(patches, version, nil)
}

// newColumnStore builds a store whose sealed segments spill to sc (nil
// keeps the store purely in-memory). The catalog passes the DB's
// SegmentCache here.
func newColumnStore(patches []*Patch, version uint64, sc *SegmentCache) *ColumnStore {
	return &ColumnStore{patches: patches, version: version, cache: sc, cols: make(map[string]*Column)}
}

// Version is the collection version the store's snapshot reflects.
func (cs *ColumnStore) Version() uint64 { return cs.version }

func (cs *ColumnStore) covers() (int, uint64) {
	if cs == nil {
		return 0, 0
	}
	return len(cs.patches), cs.version
}

// Len is the snapshot row count.
func (cs *ColumnStore) Len() int { return len(cs.patches) }

// Patches exposes the backing snapshot (row i of every column describes
// patches[i]).
func (cs *ColumnStore) Patches() []*Patch { return cs.patches }

// zoneMap summarizes one segment of a column for predicate pruning.
type zoneMap struct {
	lo, hi int // row range [lo, hi)
	// Numeric bounds over non-null rows (valid when !allNull).
	minI, maxI int64
	minF, maxF float64
	// codeSet is a presence bitset of dictionary codes < 64 in this segment
	// (string columns; valid while the dictionary holds at most 64 codes).
	codeSet uint64
	allNull bool
}

// Column is one metadata field projected over the snapshot: a sequence
// of fixed-size immutable segments, each a typed array plus a local null
// bitmap, summarized by an always-resident zone map. A column projects
// only when every non-missing value shares one scalar kind (int, float
// or string); mixed or vector-valued fields stay row-only. Sealed
// segments are shared by pointer with older and newer stores over the
// same collection, and — when a segment cache is attached — may have
// their data dropped from memory and decoded again on demand.
type Column struct {
	kind    ValueKind
	n       int
	field   string
	patches []*Patch // backing snapshot (rebuild source if a segment's encoding is unreadable)
	cache   *SegmentCache
	segs    []*colSegment
	dict    []string
	dictIdx map[string]uint32 // value -> code (built during projection)
	// sharedDict marks dict/dictIdx as borrowed from an older column;
	// the first genuinely new string clones both before appending.
	sharedDict bool
	nnull      int // number of null (missing) rows
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
// the recovery path when a segment's encoding is unreadable. A
// sealed prefix row can never introduce a new dictionary string (codes
// assign in first-appearance order over the whole column), so the
// rebuild is deterministic and lock-free.
func (c *Column) rebuildSeg(sg *colSegment) *segData {
	lo, hi := sg.zone.lo, sg.zone.hi
	d := &segData{nulls: make([]uint64, (hi-lo+63)/64)}
	d.alloc(c.kind, hi-lo)
	for i := lo; i < hi; i++ {
		v, ok := c.patches[i].Get(c.field)
		if !ok {
			continue
		}
		j := i - lo
		d.setPresent(j)
		switch c.kind {
		case KindInt:
			d.ints[j] = v.Int()
		case KindFloat:
			d.floats[j] = v.Float()
		case KindStr:
			d.codes[j] = c.dictIdx[v.Str()]
		}
	}
	return d
}

// Column returns the projection of field, building and caching it on
// first use. ok is false when the field cannot be columnized (no
// non-missing values, vector/rect values, or mixed scalar kinds).
func (cs *ColumnStore) Column(field string) (*Column, bool) {
	cs.mu.RLock()
	col, cached := cs.cols[field]
	cs.mu.RUnlock()
	if cached {
		return col, col != nil
	}
	if col = projectColumn(cs.patches, field); col != nil {
		col.cache = cs.cache
		cs.cache.spill(col)
	}
	cs.mu.Lock()
	if prev, raced := cs.cols[field]; raced {
		col = prev // another projector won; keep one canonical column
	} else {
		cs.cols[field] = col
	}
	cs.mu.Unlock()
	return col, col != nil
}

// ExtendStats is one incremental extension's segment accounting: of the
// old store's TotalBlocks (summed over its projected columns),
// ReusedBlocks sealed segments were carried over by pointer — arrays,
// zone maps and dictionary codes untouched; only the remainder (the
// partial tail segment per column) was re-projected.
type ExtendStats struct {
	Columns      int // projected columns carried into the new store
	ReusedBlocks int // sealed old segments shared verbatim
	TotalBlocks  int // all old segments (shared + rebuilt tails)
}

// Extend builds the store for a longer snapshot that has this store's
// snapshot as a prefix (the caller must guarantee the prefix property;
// Collection.Columns checks it). Every column already projected here is
// carried forward: sealed (full) segments are shared by pointer — no
// copy of any kind — and only rows from the old tail segment's start
// onward re-project, so the result is indistinguishable from
// NewColumnStore over newPatches with the same columns accessed, at
// O(appended rows) cost. The receiver is not mutated and stays valid for
// readers still holding it; columns never projected on the old store
// stay lazy on the new one.
func (cs *ColumnStore) Extend(newPatches []*Patch, newVersion uint64) (*ColumnStore, ExtendStats) {
	next := newColumnStore(newPatches, newVersion, cs.cache)
	oldN := len(cs.patches)
	var st ExtendStats
	cs.mu.RLock()
	carried := make(map[string]*Column, len(cs.cols))
	for field, col := range cs.cols {
		// nil marks a field that was not columnizable over the old
		// snapshot. A mixed-kind or vector field stays that way, but an
		// all-null prefix can become columnizable once appended rows carry
		// values — leave those fields lazy so the new store re-projects.
		if col != nil {
			carried[field] = col
		}
	}
	cs.mu.RUnlock()
	for field, col := range carried {
		ext := extendColumn(col, field, newPatches, oldN)
		next.cols[field] = ext // nil: the suffix broke columnizability
		if ext == nil {
			continue
		}
		st.Columns++
		sealed := oldN / ColumnBlockSize
		st.ReusedBlocks += sealed
		st.TotalBlocks += len(col.segs)
		cs.cache.spill(ext) // newly sealed tail segments spill
	}
	return next, st
}

// extendColumn grows one projected column over the appended suffix rows:
// sealed segments share by pointer, the old tail segment's rows onward
// re-project. Returns nil when a suffix row makes the field
// non-columnizable (vector/rect value or a kind mismatch) — the same
// verdict a fresh projection over the full snapshot would reach.
func extendColumn(old *Column, field string, patches []*Patch, oldN int) *Column {
	n := len(patches)
	sealed := oldN / ColumnBlockSize
	col := &Column{
		kind:       old.kind,
		n:          n,
		field:      field,
		patches:    patches,
		cache:      old.cache,
		dict:       old.dict,
		dictIdx:    old.dictIdx,
		sharedDict: true,
		segs:       make([]*colSegment, 0, (n+ColumnBlockSize-1)/ColumnBlockSize),
	}
	col.segs = append(col.segs, old.segs[:sealed]...)
	for _, sg := range col.segs {
		col.nnull += sg.nnull
	}
	if !col.appendRows(sealed*ColumnBlockSize, n) {
		return nil
	}
	return col
}

// projectColumn builds the segmented projection of one field, or nil
// when the field is not columnizable.
func projectColumn(patches []*Patch, field string) *Column {
	n := len(patches)
	col := &Column{
		n:       n,
		field:   field,
		patches: patches,
		dictIdx: make(map[string]uint32),
		segs:    make([]*colSegment, 0, (n+ColumnBlockSize-1)/ColumnBlockSize),
	}
	if !col.appendRows(0, n) {
		return nil
	}
	if col.kind == 0 {
		return nil // every row null: nothing to scan
	}
	return col
}

// appendRows projects rows [from, n) of c.patches into fresh segments
// appended to c.segs (from must be ColumnBlockSize-aligned). Dictionary
// codes assign in first-appearance order, so projecting rows in
// ascending order reproduces a fresh full projection's codes exactly;
// a dictionary borrowed from an older column clones copy-on-write
// before the first genuinely new string. Returns false when a row makes
// the field non-columnizable (vector/rect value or scalar kind
// mismatch) — the verdict a fresh projection would reach.
func (c *Column) appendRows(from, n int) bool {
	for lo := from; lo < n; lo += ColumnBlockSize {
		hi := lo + ColumnBlockSize
		if hi > n {
			hi = n
		}
		sg := &colSegment{zone: zoneMap{lo: lo, hi: hi}, sealed: hi-lo == ColumnBlockSize}
		d := &segData{nulls: make([]uint64, (hi-lo+63)/64)}
		d.alloc(c.kind, hi-lo)
		for i := lo; i < hi; i++ {
			v, ok := c.patches[i].Get(c.field)
			if !ok {
				c.nnull++
				sg.nnull++
				continue
			}
			switch v.Kind {
			case KindInt, KindFloat, KindStr:
			default:
				return false // vectors/rects are not columnar
			}
			if c.kind == 0 {
				c.setKind(v.Kind)
				d.alloc(c.kind, hi-lo)
			} else if v.Kind != c.kind {
				return false // mixed kinds: row path only
			}
			j := i - lo
			d.setPresent(j)
			switch v.Kind {
			case KindInt:
				d.ints[j] = v.Int()
			case KindFloat:
				d.floats[j] = v.Float()
			case KindStr:
				d.codes[j] = c.addCode(v.Str())
			}
		}
		sg.computeZone(c.kind, d)
		sg.data.Store(d)
		c.segs = append(c.segs, sg)
	}
	return true
}

// setKind records the kind discovered at the first non-null row and
// retro-allocates typed arrays on the all-null segments built before it.
// Only reachable during a fresh projection, so every earlier segment's
// data is private to this builder.
func (c *Column) setKind(k ValueKind) {
	c.kind = k
	for _, sg := range c.segs {
		if d := sg.data.Load(); d != nil {
			d.alloc(k, sg.rows())
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
// skipped, how many rows the surviving segments actually swept, and how
// many cold segments had to be decoded from their encodings.
type ScanStats struct {
	Blocks       int // zone-mapped segments in the column
	Pruned       int // segments skipped by zone-map/dictionary pruning
	RowsScanned  int // rows swept in unpruned segments
	SegLoads     int // evicted segments decoded from their encodings
	SegTransient int // of SegLoads: read through the scratch, not admitted to the cache
}

// Add accumulates o into s (aggregating the fragments of one query).
func (s *ScanStats) Add(o ScanStats) {
	s.Blocks += o.Blocks
	s.Pruned += o.Pruned
	s.RowsScanned += o.RowsScanned
	s.SegLoads += o.SegLoads
	s.SegTransient += o.SegTransient
}

// FilterEq evaluates field == v into a selection index list in row
// order, skipping segments whose zone map proves no row can match. ok is
// false when the field has no column (caller falls back to the row scan)
// — a kind mismatch between the column and the constant is a valid
// (empty) result, mirroring Value.Equal.
func (cs *ColumnStore) FilterEq(field string, v Value) ([]int32, bool) {
	sel, _, ok := cs.FilterEqStats(field, v)
	return sel, ok
}

// FilterEqStats is FilterEq reporting per-call pruning statistics: the
// column scan over every row of the store, keeping every match.
func (cs *ColumnStore) FilterEqStats(field string, v Value) ([]int32, ScanStats, bool) {
	return cs.filterAll(Pred{Field: field, V: v})
}

// FilterRange evaluates lo <= field < hi (numeric widening, matching
// Pred.Match) into a selection list in row order. ok is false when the
// field has no column. String columns return an empty selection, like
// the row predicate (AsFloat yields NaN, which fails both bounds).
func (cs *ColumnStore) FilterRange(field string, lo, hi float64) ([]int32, bool) {
	sel, _, ok := cs.FilterRangeStats(field, lo, hi)
	return sel, ok
}

// FilterRangeStats is FilterRange reporting per-call pruning
// statistics (see FilterEqStats).
func (cs *ColumnStore) FilterRangeStats(field string, lo, hi float64) ([]int32, ScanStats, bool) {
	return cs.filterAll(Pred{Field: field, Range: true, Lo: lo, Hi: hi})
}

func (cs *ColumnStore) filterAll(pred Pred) ([]int32, ScanStats, bool) {
	var k keeper
	st, ok := cs.scan(&pred, len(cs.patches), &k)
	return k.sel, st, ok
}

// scan runs pred over the store's first n rows — the caller's snapshot,
// which the store may have outgrown — and folds each segment's matches
// into k as one ascending block. Pruning tests run against the resident
// zone maps before any segment data is touched, so a pruned segment is
// never decoded. ok is false, with k untouched, when the field has no
// column.
func (cs *ColumnStore) scan(pred *Pred, n int, k *keeper) (ScanStats, bool) {
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
		rows := min(z.hi, n) - z.lo
		st.RowsScanned += rows
		d := rd.rows(sg, &st)
		if c := m.match(&blk, d, z.lo, rows); c > 0 {
			k.fold(blk[:c], col, d)
		}
	}
	return st, true
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
	case z.allNull:
		return true
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
		return matchRange(blk, d.ints[:rows], d, base, m.lo, m.hi)
	case m.rng:
		return matchRange(blk, d.floats[:rows], d, base, m.lo, m.hi)
	case m.kind == KindInt:
		return matchEq(blk, d.ints[:rows], d, base, m.i)
	case m.kind == KindFloat:
		return matchEq(blk, d.floats[:rows], d, base, m.f)
	}
	return matchEq(blk, d.codes[:rows], d, base, m.code)
}

// The match kernels, one instance per array type: a typed-array sweep
// with no switch inside, rows addressed locally (global row = base + j).

func matchEq[T int64 | float64 | uint32](blk *[ColumnBlockSize]int32, vals []T, d *segData, base int, v T) int {
	c := 0
	for j, x := range vals {
		if x == v && !d.null(j) {
			blk[c] = int32(base + j)
			c++
		}
	}
	return c
}

func matchRange[T int64 | float64](blk *[ColumnBlockSize]int32, vals []T, d *segData, base int, lo, hi float64) int {
	c := 0
	for j, x := range vals {
		if f := float64(x); f >= lo && f < hi && !d.null(j) {
			blk[c] = int32(base + j)
			c++
		}
	}
	return c
}

// Materialize resolves a selection list to its patches, preserving row
// order (the same patches, same order, the row scan would produce).
func (cs *ColumnStore) Materialize(sel []int32) []*Patch {
	out := make([]*Patch, len(sel))
	for i, idx := range sel {
		out[i] = cs.patches[idx]
	}
	return out
}

// --------------------------------------------------------------- top-k ----

// TopK returns the selection of the k smallest (asc) or largest (desc)
// rows by field, ordered exactly as a stable sort of the input would
// order them (ties resolve in row order; null rows order before any
// value ascending, after any value descending — CompareBy's order for the zero
// Value). sel is the candidate row set in row order; nil means all rows.
// ok is false when the field has no column.
func (cs *ColumnStore) TopK(sel []int32, field string, desc bool, k int) ([]int32, bool) {
	if _, ok := cs.Column(field); !ok {
		return nil, false
	}
	n := len(sel)
	if sel == nil {
		n = len(cs.patches)
	}
	if k = min(k, n); k <= 0 {
		return []int32{}, true
	}
	t := newTopKeep(cs, nil, field, desc, k)
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
// without one, candidates compare their rows' own values.
type topKeep struct {
	col  *Column // the order-by field's column; nil: compare row values
	rd   segReader
	heap topHeap[topEntry]
}

// topEntry is one top-k candidate: its row and, with a column, its sort
// value.
type topEntry struct {
	row  int32
	null bool
	i    int64 // int value, or dictionary code
	f    float64
}

// newTopKeep returns the consumer keeping the k (> 0) first rows of a
// stable sort by field: ties in row order, null or missing values
// ordering as the zero Value (before every value ascending, after every
// value descending). It orders by cs's column for field when there is
// one, else by the rows of snap.
func newTopKeep(cs *ColumnStore, snap []*Patch, field string, desc bool, k int) *topKeep {
	t := &topKeep{heap: topHeap[topEntry]{k: k, h: make([]topEntry, 0, k)}}
	if cs != nil {
		t.col, _ = cs.Column(field)
	}
	col := t.col
	if col == nil {
		t.heap.before = func(a, b topEntry) bool {
			if c := CompareBy(snap[a.row], snap[b.row], field, desc); c != 0 {
				return c < 0
			}
			return a.row < b.row
		}
		return t
	}
	t.rd.col = col
	// Value.Compare on the column values (null = zero Value, whose kind 0
	// sorts below every real kind), ties in row order.
	t.heap.before = func(a, b topEntry) bool {
		if a.null || b.null {
			if a.null != b.null {
				// One null: ascending puts the null first, descending last.
				return a.null != desc
			}
			return a.row < b.row // both null: row order
		}
		var less, greater bool
		switch col.kind {
		case KindInt:
			less, greater = a.i < b.i, a.i > b.i
		case KindFloat:
			less, greater = a.f < b.f, a.f > b.f
		case KindStr:
			sa, sb := col.dict[a.i], col.dict[b.i]
			less, greater = sa < sb, sa > sb
		}
		if desc {
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
	return t
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
		case d.null(j):
			e.null = true
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

// rows returns the kept rows in order and releases the segment reader.
// The heap is spent afterwards.
func (t *topKeep) rows() []int32 {
	t.rd.close()
	top := t.heap.sorted()
	out := make([]int32, len(top))
	for i, e := range top {
		out[i] = e.row
	}
	return out
}
