package core

// Tiered column-segment storage. Columns are partitioned into immutable
// 1024-row segments shared by pointer between snapshots (Extend reuses
// sealed segments verbatim, so appends cost O(new rows), not a history
// memcpy). Sealed segments additionally spill through the kv pager into
// a per-collection bucket: the segment *summaries* — zone maps and null
// counts — always stay resident, so zone-pruned scans never fault a cold
// segment, while the row data itself lives behind an atomic pointer that
// a byte-budgeted cache (SegmentCache) may drop once the bytes are
// safely on disk. Readers mid-scan hold the *segData they loaded, so an
// eviction never invalidates an in-flight kernel — the garbage collector
// is the reference count. A cold segment re-enters the cache only when
// it is requested more often than what it would displace; otherwise a
// kernel reads it through a pooled scratch and drops it again, so a
// scan larger than the budget neither churns nor allocates (README:
// "Eviction and admission policy"). A manifest (JSON, same bucket) records each
// spilled column's kind, dictionary and zone maps, letting a reopened
// collection rehydrate its column store from disk instead of
// re-projecting every patch.

import (
	"container/list"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/kv"
)

// segData is one segment's row data: a typed array for the column kind
// plus the local presence bitmap (bit set = value present). Rows address
// locally: global row i lives at i - seg.zone.lo. Every segData is an
// independent allocation — never a sub-slice of a store-wide array — so
// evicting one segment genuinely frees its bytes.
type segData struct {
	ints   []int64
	floats []float64
	codes  []uint32
	nulls  []uint64
}

func (d *segData) null(j int) bool  { return d.nulls[j>>6]&(1<<(uint(j)&63)) == 0 }
func (d *segData) setPresent(j int) { d.nulls[j>>6] |= 1 << (uint(j) & 63) }

// alloc sizes the typed array for kind if not already allocated (the
// kind of an all-null prefix is discovered mid-projection).
func (d *segData) alloc(kind ValueKind, rows int) {
	switch kind {
	case KindInt:
		if d.ints == nil {
			d.ints = make([]int64, rows)
		}
	case KindFloat:
		if d.floats == nil {
			d.floats = make([]float64, rows)
		}
	case KindStr:
		if d.codes == nil {
			d.codes = make([]uint32, rows)
		}
	}
}

// segBytes is the cache-accounting size of a segment's arrays, known
// from its shape alone so admission is decided before anything decodes.
func segBytes(kind ValueKind, rows int) int64 {
	width := 8
	if kind == KindStr {
		width = 4
	}
	return int64(width*rows + 8*((rows+63)/64) + 64)
}

// colSegment is one zone-mapped block of a column. The summary fields
// (zone, nnull, sealed) are immutable after the segment is built and
// always memory-resident; data may be dropped by the segment cache once
// ondisk is set, and reloads on demand. Sealed (full-size) segments are
// shared by pointer across every ColumnStore generation that covers
// their rows.
type colSegment struct {
	zone   zoneMap // includes the [lo, hi) row range
	nnull  int     // missing rows within the segment
	sealed bool    // full ColumnBlockSize rows: shareable and spillable
	ondisk atomic.Bool
	data   atomic.Pointer[segData]
	req    atomic.Uint64 // aged request count (see SegmentCache.request)
}

func (sg *colSegment) rows() int { return sg.zone.hi - sg.zone.lo }

// computeZone fills the segment's zone map from its data.
func (sg *colSegment) computeZone(kind ValueKind, d *segData) {
	z := &sg.zone
	z.allNull = true
	for j := 0; j < sg.rows(); j++ {
		if d.null(j) {
			continue
		}
		switch kind {
		case KindInt:
			v := d.ints[j]
			if z.allNull || v < z.minI {
				z.minI = v
			}
			if z.allNull || v > z.maxI {
				z.maxI = v
			}
		case KindFloat:
			v := d.floats[j]
			if z.allNull || v < z.minF {
				z.minF = v
			}
			if z.allNull || v > z.maxF {
				z.maxF = v
			}
		case KindStr:
			if code := d.codes[j]; code < 64 {
				z.codeSet |= 1 << code
			}
		}
		z.allNull = false
	}
}

// ------------------------------------------------------ segment blobs ----

// segBlobVersion versions the on-disk segment encoding.
const segBlobVersion = 1

// encodeSegData serializes a segment's arrays: a 6-byte header (version,
// kind, bitmap length), the null bitmap, then the typed array via the
// codec package's losslessly round-tripping segment encoders.
func encodeSegData(kind ValueKind, d *segData) []byte {
	bm := codec.EncodeBitmap(d.nulls)
	var typed []byte
	switch kind {
	case KindInt:
		typed = codec.EncodeInts(d.ints)
	case KindFloat:
		typed = codec.EncodeFloats(d.floats)
	case KindStr:
		typed = codec.EncodeCodes(d.codes)
	}
	out := make([]byte, 0, 6+len(bm)+len(typed))
	out = append(out, segBlobVersion, byte(kind))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(bm)))
	out = append(out, bm...)
	out = append(out, typed...)
	return out
}

// decodeSegDataInto reverses encodeSegData into d, reusing d's arrays
// when they are large enough, and validates the header against the
// expected kind and row count. decode(encode(d)) == d byte-for-byte.
func decodeSegDataInto(d *segData, kind ValueKind, rows int, b []byte) (err error) {
	if len(b) < 6 || b[0] != segBlobVersion || ValueKind(b[1]) != kind {
		return fmt.Errorf("core: segment blob header mismatch")
	}
	bl := int(binary.LittleEndian.Uint32(b[2:]))
	if bl < 0 || len(b) < 6+bl {
		return fmt.Errorf("core: segment blob bitmap length")
	}
	if d.nulls, err = codec.DecodeBitmapInto(d.nulls, b[6:6+bl]); err != nil {
		return err
	}
	if len(d.nulls) != (rows+63)/64 {
		return fmt.Errorf("core: segment bitmap rows mismatch")
	}
	typed := b[6+bl:]
	switch kind {
	case KindInt:
		if d.ints, err = codec.DecodeIntsInto(d.ints, typed); err == nil && len(d.ints) != rows {
			err = fmt.Errorf("core: segment int rows mismatch")
		}
	case KindFloat:
		if d.floats, err = codec.DecodeFloatsInto(d.floats, typed); err == nil && len(d.floats) != rows {
			err = fmt.Errorf("core: segment float rows mismatch")
		}
	case KindStr:
		if d.codes, err = codec.DecodeCodesInto(d.codes, typed); err == nil && len(d.codes) != rows {
			err = fmt.Errorf("core: segment code rows mismatch")
		}
	default:
		err = fmt.Errorf("core: segment kind %d", kind)
	}
	return err
}

// segScratch holds one kernel call's buffers for cold segments that do
// not earn residency: the bucket key, the raw blob and the arrays it
// decodes into, reused from segment to segment and pooled between
// calls, so a scan's cold reads allocate nothing (see segReader).
type segScratch struct {
	key, raw []byte
	d        segData
}

var scratchPool = sync.Pool{New: func() any { return new(segScratch) }}

// scratchDead, when set, is called the moment a scratch's contents are
// dead. The package's tests poison it there, so a kernel that reads a
// transient segment past its own inner loop computes garbage.
var scratchDead func(*segScratch)

// ------------------------------------------------------- segment cache ----

// SegmentCache budgets the bytes of resident spilled segments, shared
// service-wide (one cache across every shard replica DB, like the shared
// cost model). Only segments safely on disk are tracked: evicting one
// just drops its data pointer — the bytes reload from the kv bucket on
// next touch, and any reader already holding the data keeps it alive.
// Eviction is second-chance LRU, re-admission is gated by request
// frequency (admits). A budget of 0 disables eviction (segments still
// spill for restart rehydration, but stay resident).
type SegmentCache struct {
	mu     sync.Mutex // admission and eviction only; a hit never takes it
	budget int64
	bytes  int64
	ll     *list.List // back = next eviction candidate
	elems  map[*colSegment]*list.Element

	epoch atomic.Uint64 // request-counter aging epoch (see request)

	spills      atomic.Int64
	spillErrors atomic.Int64
	loads       atomic.Int64
	transient   atomic.Int64
	loadFaults  atomic.Int64
	evictions   atomic.Int64
}

type segEntry struct {
	sg   *colSegment
	size int64
	seen uint64 // sg.req when the eviction hand last passed this entry
}

// NewSegmentCache builds a segment cache with the given byte budget
// (0 or negative = unlimited: spill for durability, never evict).
func NewSegmentCache(budgetBytes int64) *SegmentCache {
	return &SegmentCache{
		budget: budgetBytes,
		ll:     list.New(),
		elems:  make(map[*colSegment]*list.Element),
	}
}

// Budget returns the configured byte budget (0 = unlimited).
func (sc *SegmentCache) Budget() int64 {
	if sc == nil {
		return 0
	}
	return sc.budget
}

// A segment's req word packs the cache epoch it was last written in
// (high bits) over its request count (low reqBits). A count that reaches
// reqCap advances the epoch, and every epoch a word has missed halves
// its count when next read — so counts measure recent popularity, and a
// column no longer scanned yields within reqCap scans of its successor.
const (
	reqBits = 8
	reqCap  = 16
)

func reqCount(w, epoch uint64) uint64 {
	if age := epoch - w>>reqBits; age < reqBits {
		return (w & (1<<reqBits - 1)) >> age
	}
	return 0
}

// request counts one kernel request (hit or cold load) for a spilled
// segment and returns the count before it. It is all a hit costs.
func (sc *SegmentCache) request(sg *colSegment) uint64 {
	if sc.budget <= 0 {
		return 0 // nothing is ever evicted: no order to keep
	}
	for {
		w := sg.req.Load()
		epoch := sc.epoch.Load()
		n := reqCount(w, epoch)
		next := n + 1
		if next == reqCap {
			sc.epoch.CompareAndSwap(epoch, epoch+1) // lost: a racing request aged everyone already
			epoch, next = epoch+1, next/2
		}
		if sg.req.CompareAndSwap(w, epoch<<reqBits|next) {
			return n
		}
	}
}

// spare moves e to the front if its segment was requested since the
// eviction hand last passed it (hits only bump req).
func (sc *SegmentCache) spare(e *list.Element) bool {
	ent := e.Value.(*segEntry)
	w := ent.sg.req.Load()
	if w == ent.seen {
		return false
	}
	ent.seen = w
	sc.ll.MoveToFront(e)
	return true
}

// admits reports whether a cold segment of size bytes, requested n
// times before this load, earns residency: it fits the free budget, or
// every resident segment it would displace was requested strictly less
// often. Ties keep the incumbent, so a cyclic scan larger than the
// budget — where the segment asked for is always the one requested
// longest ago — keeps a fixed resident subset. Nothing is evicted here;
// insert does that once the segment's data is published.
func (sc *SegmentCache) admits(size int64, n uint64) bool {
	if sc.budget <= 0 {
		return true
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	need := sc.bytes + size - sc.budget
	epoch := sc.epoch.Load()
	for e, left := sc.ll.Back(), sc.ll.Len(); need > 0; left-- {
		if left == 0 {
			return false // every entry spared or too hot
		}
		prev := e.Prev()
		if !sc.spare(e) {
			ent := e.Value.(*segEntry)
			if reqCount(ent.seen, epoch) >= n {
				return false
			}
			need -= ent.size
		}
		e = prev
	}
	return true
}

// insert tracks a resident spilled segment — unconditionally: a fresh
// spill, or a load admits already let in — and evicts from the cold end
// while over budget, sparing recently requested entries for one lap.
func (sc *SegmentCache) insert(sg *colSegment, size int64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, ok := sc.elems[sg]; ok {
		return
	}
	sc.elems[sg] = sc.ll.PushFront(&segEntry{sg: sg, size: size, seen: sg.req.Load()})
	sc.bytes += size
	for e, left := sc.ll.Back(), sc.ll.Len(); sc.budget > 0 && sc.bytes > sc.budget && e != nil; left-- {
		prev := e.Prev()
		if left <= 0 || !sc.spare(e) {
			ent := sc.ll.Remove(e).(*segEntry)
			delete(sc.elems, ent.sg)
			sc.bytes -= ent.size
			ent.sg.data.Store(nil)
			sc.evictions.Add(1)
		}
		e = prev
	}
}

// EvictAll drops every tracked segment's data (tests and memory
// pressure): the summaries stay, the bytes reload on demand.
func (sc *SegmentCache) EvictAll() {
	sc.mu.Lock()
	for sg := range sc.elems {
		sg.data.Store(nil)
		sc.evictions.Add(1)
	}
	sc.ll.Init()
	sc.elems = make(map[*colSegment]*list.Element)
	sc.bytes = 0
	sc.mu.Unlock()
}

// SegmentCacheStats is a point-in-time snapshot of the cache counters.
type SegmentCacheStats struct {
	Spills           int64 // sealed segments written to disk
	SpillErrors      int64 // failed segment or manifest writes (segment stays pinned)
	Loads            int64 // cold segments read back from disk
	TransientLoads   int64 // cold reads served from a kernel's scratch, not admitted
	LoadFaults       int64 // unreadable spilled segments rebuilt from the row snapshot
	Evictions        int64 // resident segments dropped under budget pressure
	ResidentBytes    int64 // bytes of spilled segments currently resident
	ResidentSegments int   // spilled segments currently resident
	Budget           int64 // configured byte budget (0 = unlimited)
}

// Stats snapshots the cache counters.
func (sc *SegmentCache) Stats() SegmentCacheStats {
	if sc == nil {
		return SegmentCacheStats{}
	}
	sc.mu.Lock()
	resident, nres := sc.bytes, sc.ll.Len()
	sc.mu.Unlock()
	return SegmentCacheStats{
		Spills:           sc.spills.Load(),
		SpillErrors:      sc.spillErrors.Load(),
		Loads:            sc.loads.Load(),
		TransientLoads:   sc.transient.Load(),
		LoadFaults:       sc.loadFaults.Load(),
		Evictions:        sc.evictions.Load(),
		ResidentBytes:    resident,
		ResidentSegments: nres,
		Budget:           sc.budget,
	}
}

// --------------------------------------------------------- spill layer ----

// columnSpill is one collection's disk tier: the kv bucket holding its
// encoded segments and manifest, and the shared cache that budgets the
// resident set. Created lazily by the catalog when the DB has a segment
// cache installed; a nil *columnSpill means the column store is purely
// in-memory (the core-library default — behavior then matches the
// pre-tiered engine exactly).
type columnSpill struct {
	bucket *kv.Bucket
	cache  *SegmentCache

	mu sync.Mutex   // serializes writes and manifest read-modify-write
	m  *segManifest // cached manifest (lazily loaded)
}

// segManifest is the JSON document (bucket key "m") describing every
// spilled column: enough summary state — kind, dictionary, zone maps,
// null counts — to rebuild a column's resident skeleton without touching
// a single data segment.
type segManifest struct {
	Fields map[string]*fieldManifest `json:"fields"`
}

type fieldManifest struct {
	Kind     ValueKind `json:"kind"`
	Rows     int       `json:"rows"`      // spilled sealed prefix length (len(Segs) * ColumnBlockSize)
	DictRows int       `json:"dict_rows"` // snapshot length Dict reflects (first-appearance order)
	Dict     []string  `json:"dict,omitempty"`
	NNull    int       `json:"nnull"` // missing rows over the sealed prefix
	Segs     []segMeta `json:"segs"`
}

// segMeta mirrors one sealed segment's resident summary. Float bounds
// persist as raw bit patterns so NaN/±Inf/-0.0 zones round-trip exactly.
type segMeta struct {
	MinI    int64  `json:"min_i,omitempty"`
	MaxI    int64  `json:"max_i,omitempty"`
	MinFB   uint64 `json:"min_fb,omitempty"`
	MaxFB   uint64 `json:"max_fb,omitempty"`
	CodeSet uint64 `json:"codes,omitempty"`
	AllNull bool   `json:"all_null,omitempty"`
	NNull   int    `json:"nnull,omitempty"`
}

func zoneMeta(sg *colSegment) segMeta {
	z := sg.zone
	return segMeta{
		MinI: z.minI, MaxI: z.maxI,
		MinFB: math.Float64bits(z.minF), MaxFB: math.Float64bits(z.maxF),
		CodeSet: z.codeSet, AllNull: z.allNull, NNull: sg.nnull,
	}
}

// segment rebuilds the resident skeleton of sealed segment si: summary
// in memory, data cold on disk.
func (m segMeta) segment(si int) *colSegment {
	sg := &colSegment{
		zone: zoneMap{
			lo:   si * ColumnBlockSize,
			hi:   (si + 1) * ColumnBlockSize,
			minI: m.MinI, maxI: m.MaxI,
			minF: math.Float64frombits(m.MinFB), maxF: math.Float64frombits(m.MaxFB),
			codeSet: m.CodeSet, allNull: m.AllNull,
		},
		nnull:  m.NNull,
		sealed: true,
	}
	sg.ondisk.Store(true)
	return sg
}

var manifestKey = []byte("m")

// appendSegKey appends the bucket key of field's si-th sealed segment to
// dst. Sealed segments are immutable and content-stable across store
// generations, so (field, index) addresses one value forever.
func appendSegKey(dst []byte, field string, si int) []byte {
	dst = append(dst, 's', 0)
	dst = append(dst, field...)
	dst = append(dst, 0)
	return binary.BigEndian.AppendUint64(dst, uint64(si)) // kv.U64Key's encoding
}

func segKey(field string, si int) []byte { return appendSegKey(nil, field, si) }

// manifestLocked returns the cached manifest, loading it from the bucket
// on first touch. Callers hold sp.mu.
func (sp *columnSpill) manifestLocked() *segManifest {
	if sp.m != nil {
		return sp.m
	}
	sp.m = &segManifest{Fields: make(map[string]*fieldManifest)}
	if raw, err := sp.bucket.Get(manifestKey); err == nil {
		var m segManifest
		if json.Unmarshal(raw, &m) == nil && m.Fields != nil {
			sp.m = &m
		}
	}
	return sp.m
}

// persist writes col's sealed, not-yet-spilled segments to the bucket
// and refreshes the manifest entry. Write failures count and leave the
// segment memory-pinned (never tracked by the cache, so never evicted);
// the manifest only ever describes the contiguous successfully-spilled
// prefix. Safe to call from racing builders: the first writer wins, the
// rest see ondisk and skip.
func (sp *columnSpill) persist(col *Column) {
	sealed := 0
	for _, sg := range col.segs {
		if !sg.sealed {
			break
		}
		sealed++
	}
	if sealed == 0 {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for si, sg := range col.segs[:sealed] {
		if sg.ondisk.Load() {
			continue
		}
		d := sg.data.Load()
		if d == nil {
			continue
		}
		if err := sp.bucket.Put(segKey(col.field, si), encodeSegData(col.kind, d)); err != nil {
			sp.cache.spillErrors.Add(1)
			continue
		}
		sp.cache.spills.Add(1)
		sg.ondisk.Store(true)
		sp.cache.insert(sg, segBytes(col.kind, sg.rows()))
	}
	// Manifest covers only the contiguous on-disk prefix.
	prefix := 0
	for _, sg := range col.segs[:sealed] {
		if !sg.ondisk.Load() {
			break
		}
		prefix++
	}
	if prefix == 0 {
		return
	}
	m := sp.manifestLocked()
	mf := m.Fields[col.field]
	if mf != nil && mf.Rows >= prefix*ColumnBlockSize && mf.DictRows >= col.n {
		return // already current
	}
	nf := &fieldManifest{
		Kind:     col.kind,
		Rows:     prefix * ColumnBlockSize,
		DictRows: col.n,
		Dict:     append([]string(nil), col.dict...),
	}
	for _, sg := range col.segs[:prefix] {
		nf.NNull += sg.nnull
		nf.Segs = append(nf.Segs, zoneMeta(sg))
	}
	m.Fields[col.field] = nf
	raw, err := json.Marshal(m)
	if err == nil {
		err = sp.bucket.Put(manifestKey, raw)
	}
	if err != nil {
		sp.cache.spillErrors.Add(1)
	}
}

// rehydrate rebuilds field's column from the manifest: spilled sealed
// segments come back as cold skeletons (summary resident, data on disk)
// and only the tail past the spilled prefix re-projects from patches.
// handled is false when the manifest cannot serve this field (never
// spilled, or the snapshot is shorter than the spilled prefix) — the
// caller then runs a full projection. A nil column with handled true is
// the cached non-columnizable verdict (a tail row broke the column),
// matching what a fresh projection would conclude.
func (sp *columnSpill) rehydrate(field string, patches []*Patch) (col *Column, handled bool) {
	sp.mu.Lock()
	m := sp.manifestLocked()
	mf := m.Fields[field]
	sp.mu.Unlock()
	if mf == nil || mf.Rows == 0 || mf.Rows > len(patches) || mf.DictRows > len(patches) ||
		len(mf.Segs)*ColumnBlockSize != mf.Rows {
		return nil, false
	}
	col = &Column{
		kind:    mf.Kind,
		n:       len(patches),
		field:   field,
		patches: patches,
		spill:   sp,
		nnull:   mf.NNull,
		dict:    append([]string(nil), mf.Dict...),
		dictIdx: make(map[string]uint32, len(mf.Dict)),
	}
	for i, s := range col.dict {
		col.dictIdx[s] = uint32(i)
	}
	col.segs = make([]*colSegment, 0, (len(patches)+ColumnBlockSize-1)/ColumnBlockSize)
	for si := range mf.Segs {
		col.segs = append(col.segs, mf.Segs[si].segment(si))
	}
	if !col.appendRows(mf.Rows, len(patches)) {
		return nil, true
	}
	sp.persist(col) // tail rows may have sealed fresh segments
	return col, true
}
