package core

// Tiered column segments. Columns are partitioned into immutable
// 1024-row segments shared by pointer between snapshots (Extend reuses
// sealed segments verbatim, so appends cost O(new rows), not a history
// memcpy). With a SegmentCache installed, each sealed segment also keeps
// its compressed encoding (encodeSegData, through internal/codec) in
// memory: that encoding is the cold tier. The segment *summaries* — zone
// maps — always stay resident, so zone-pruned scans never
// decode a cold segment, while the decoded row data lives behind an
// atomic pointer that the byte-budgeted cache may drop once the encoding
// is set. Readers mid-scan hold the *segData they loaded, so an eviction
// never invalidates an in-flight kernel — the garbage collector is the
// reference count. A cold segment re-enters the cache only when it is
// requested more often than what it would displace; otherwise a kernel
// decodes it into a pooled scratch and drops it again, so a scan larger
// than the budget neither churns nor allocates (README: "Eviction and
// admission policy"). Nothing is persisted: the rows are the stored data,
// and a reopened collection projects its columns from the rows it loads.

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
)

// segData is one segment's row data: a typed array for the column kind,
// one value per row. Rows address locally: global row i lives at i -
// seg.zone.lo. Every segData is an independent allocation — never a
// sub-slice of a store-wide array — so evicting one segment genuinely
// frees its bytes.
type segData struct {
	ints   []int64
	floats []float64
	codes  []uint32
}

// newSegData allocates a segment's array of rows values of kind.
func newSegData(kind ValueKind, rows int) *segData {
	d := new(segData)
	switch kind {
	case KindInt:
		d.ints = make([]int64, rows)
	case KindFloat:
		d.floats = make([]float64, rows)
	case KindStr:
		d.codes = make([]uint32, rows)
	}
	return d
}

// grow returns d's array lengthened to rows values: d's own array when
// inPlace and it has the room, so the values past d's end are the
// caller's to write and d's readers never look at them; otherwise a
// copy of d's values with room for ColumnBlockSize.
func (d *segData) grow(kind ValueKind, rows int, inPlace bool) *segData {
	g := new(segData)
	switch kind {
	case KindInt:
		g.ints = growRows(d.ints, rows, inPlace)
	case KindFloat:
		g.floats = growRows(d.floats, rows, inPlace)
	case KindStr:
		g.codes = growRows(d.codes, rows, inPlace)
	}
	return g
}

func growRows[T any](vals []T, rows int, inPlace bool) []T {
	if inPlace && cap(vals) >= rows {
		return vals[:rows]
	}
	out := make([]T, rows, ColumnBlockSize) // a tail holds at most a block
	copy(out, vals)
	return out
}

// segBytes is the cache-accounting size of a segment's arrays, known
// from its shape alone so admission is decided before anything decodes.
func segBytes(kind ValueKind, rows int) int64 {
	width := 8
	if kind == KindStr {
		width = 4
	}
	return int64(width*rows + 64)
}

// colSegment is one zone-mapped block of a column. The summary fields
// (zone, sealed) are immutable after the segment is built and
// always memory-resident; data may be dropped by the segment cache once
// enc is set, and decodes from enc on demand. Sealed (full-size)
// segments are shared by pointer across every ColumnStore generation
// that covers their rows.
type colSegment struct {
	zone   zoneMap // includes the [lo, hi) row range
	sealed bool    // full ColumnBlockSize rows: shareable and spillable
	// enc is data's encoding, set once when the segment spills (see
	// SegmentCache.spill). Nil: data is never evicted.
	enc  atomic.Pointer[[]byte]
	data atomic.Pointer[segData]
	req  atomic.Uint64 // aged request count (see SegmentCache.request)
	// ord is a sealed segment's sort order, set once by the first index
	// probe (see Column.order). It stays resident when data is evicted.
	ord atomic.Pointer[[]uint16]
	// grown is claimed by the first Extend that grows this unsealed
	// segment, which may write its arrays past its rows; any later one
	// copies (see Column.growTail).
	grown atomic.Bool
}

func (sg *colSegment) rows() int { return sg.zone.hi - sg.zone.lo }

// computeZone fills the segment's zone map from its data.
func (sg *colSegment) computeZone(kind ValueKind, d *segData) {
	z := &sg.zone
	switch kind {
	case KindInt:
		z.minI, z.maxI = math.MaxInt64, math.MinInt64
	case KindFloat:
		z.minF, z.maxF = math.Inf(1), math.Inf(-1)
	}
	z.widen(kind, d, 0)
}

// widen folds the values of d from index j on into the zone map.
func (z *zoneMap) widen(kind ValueKind, d *segData, j int) {
	switch kind {
	case KindInt:
		z.minI, z.maxI = bounds(d.ints[j:], z.minI, z.maxI)
	case KindFloat:
		z.minF, z.maxF = bounds(d.floats[j:], z.minF, z.maxF)
	case KindStr:
		for _, code := range d.codes[j:] {
			if code < 64 {
				z.codeSet |= 1 << code
			}
		}
	}
}

// bounds widens the empty range lo > hi the caller passes to the least
// and greatest of vals. A NaN compares false both ways and never moves
// them: it matches no equality or range, so it must not widen a zone.
// An all-NaN float segment keeps +Inf and −Inf, which every equality
// and range skips.
func bounds[T int64 | float64](vals []T, lo, hi T) (T, T) {
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// ------------------------------------------------------ segment blobs ----

// segBlobVersion versions the segment encoding.
const segBlobVersion = 2

// encodeSegData serializes a segment's array: a 2-byte header (version,
// kind), then the typed array via the codec package's losslessly
// round-tripping segment encoders.
func encodeSegData(kind ValueKind, d *segData) []byte {
	var typed []byte
	switch kind {
	case KindInt:
		typed = codec.EncodeInts(d.ints)
	case KindFloat:
		typed = codec.EncodeFloats(d.floats)
	case KindStr:
		typed = codec.EncodeCodes(d.codes)
	}
	return append([]byte{segBlobVersion, byte(kind)}, typed...)
}

// decodeSegDataInto reverses encodeSegData into d, reusing d's arrays
// when they are large enough, and validates the header against the
// expected kind and row count. decode(encode(d)) == d byte-for-byte.
func decodeSegDataInto(d *segData, kind ValueKind, rows int, b []byte) (err error) {
	if len(b) < 2 || b[0] != segBlobVersion || ValueKind(b[1]) != kind {
		return fmt.Errorf("core: segment blob header mismatch")
	}
	typed := b[2:]
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

// scratchPool holds the arrays one kernel call decodes cold segments
// into when they do not earn residency, reused from segment to segment
// and pooled between calls, so a scan's cold reads allocate nothing (see
// segReader).
var scratchPool = sync.Pool{New: func() any { return new(segData) }}

// scratchDead, when set, is called the moment a scratch's contents are
// dead. The package's tests poison it there, so a kernel that reads a
// transient segment past its own inner loop computes garbage.
var scratchDead func(*segData)

// ------------------------------------------------------- segment cache ----

// SegmentCache budgets the bytes of resident decoded segments, shared
// service-wide (one cache across every shard replica DB, like the shared
// cost model). Only spilled segments, those holding their encoding, are
// tracked: evicting one just drops its data pointer — the arrays decode
// again from the encoding on next touch, and any reader already holding
// the data keeps it alive. Eviction is second-chance LRU, re-admission
// is gated by request frequency (admits).
type SegmentCache struct {
	mu     sync.Mutex // admission and eviction only; a hit never takes it
	budget int64
	bytes  int64
	ll     *list.List // back = next eviction candidate
	elems  map[*colSegment]*list.Element

	epoch atomic.Uint64 // request-counter aging epoch (see request)

	spills     atomic.Int64
	loads      atomic.Int64
	transient  atomic.Int64
	loadFaults atomic.Int64
	evictions  atomic.Int64
}

type segEntry struct {
	sg   *colSegment
	size int64
	seen uint64 // sg.req when the eviction hand last passed this entry
}

// NewSegmentCache builds a segment cache that keeps at most budgetBytes
// of decoded segment data resident.
func NewSegmentCache(budgetBytes int64) *SegmentCache {
	return &SegmentCache{
		budget: budgetBytes,
		ll:     list.New(),
		elems:  make(map[*colSegment]*list.Element),
	}
}

// Budget returns the configured byte budget.
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
	for e, left := sc.ll.Back(), sc.ll.Len(); sc.bytes > sc.budget && e != nil; left-- {
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
// pressure): the summaries and encodings stay, the arrays decode again
// on demand.
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
	Spills           int64 // sealed segments encoded and tracked by the cache
	Loads            int64 // cold segments decoded from their encoding
	TransientLoads   int64 // cold reads served from a kernel's scratch, not admitted
	LoadFaults       int64 // undecodable segments rebuilt from the row snapshot
	Evictions        int64 // resident segments dropped under budget pressure
	ResidentBytes    int64 // bytes of decoded spilled segments currently resident
	ResidentSegments int   // spilled segments currently resident
	Budget           int64 // configured byte budget
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
		Loads:            sc.loads.Load(),
		TransientLoads:   sc.transient.Load(),
		LoadFaults:       sc.loadFaults.Load(),
		Evictions:        sc.evictions.Load(),
		ResidentBytes:    resident,
		ResidentSegments: nres,
		Budget:           sc.budget,
	}
}

// spill encodes col's sealed segments that have no encoding yet and
// hands them to the cache, which may then evict their data. Racing
// builders may both encode a segment; the first to publish wins and the
// rest skip it. A nil cache keeps col purely in memory.
func (sc *SegmentCache) spill(col *Column) {
	if sc == nil {
		return
	}
	for _, sg := range col.segs {
		if !sg.sealed {
			break
		}
		if sg.enc.Load() != nil {
			continue
		}
		// Data is resident: only a segment with an encoding is evicted.
		enc := encodeSegData(col.kind, sg.data.Load())
		if sg.enc.CompareAndSwap(nil, &enc) {
			sc.spills.Add(1)
			sc.insert(sg, segBytes(col.kind, sg.rows()))
		}
	}
}
