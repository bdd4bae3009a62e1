package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/hashidx"
)

// IndexKind selects a single-attribute access method (§3.2's hash and B+
// tree). The multidimensional access methods are VectorIndex's modes
// (ball tree exact, LSH approximate). The R-tree (internal/rtree) is
// timed by Figure 6's index-build experiment and backs no core operator.
type IndexKind int

// Supported index kinds. The values are persisted in index descriptors.
const (
	IdxBTree IndexKind = iota + 1
	IdxHash
)

func (k IndexKind) String() string {
	switch k {
	case IdxBTree:
		return "btree"
	case IdxHash:
		return "hash"
	default:
		return fmt.Sprintf("idx(%d)", int(k))
	}
}

// Refresh is the outcome of serving an accelerator (column store, vector
// index, hash or B+ tree index) current as of one snapshot: the three
// arms of the certify → extend → rebuild lifecycle.
type Refresh int

// Lifecycle outcomes.
const (
	RefreshHit     Refresh = iota // already current for the caller's snapshot
	RefreshExtend                 // covered a certified prefix: only the appended rows were added
	RefreshRebuild                // certification failed: built from the whole snapshot
)

func (r Refresh) String() string {
	return [...]string{"hit", "extend", "rebuild"}[r]
}

// Index is a handle on a hash or B+ tree secondary index over one
// metadata field of a collection. Both kinds are persistent (they live
// in the database's page file) and maintained: every probe names the
// snapshot it executes over and first brings the index current for it
// (see sync). A handle binds the Collection value it was opened with,
// whose snapshots its probes carry; the structure it shares is the DB's
// one per (collection name, field, kind).
type Index struct {
	*indexCore
	col *Collection
}

// indexCore is one index's structure. Its mutex serializes maintenance
// with every probe (a B+ tree is not safe for concurrent use: its
// inner-node cache is unsynchronized, and its leaves and the hash
// index's buckets are read in place).
type indexCore struct {
	Kind  IndexKind
	Col   string
	Field string
	// BuildTime records the last full construction's cost (Figure 6's
	// subject).
	BuildTime time.Duration

	// Guarded by mu: the structure and what it covers — the first rows
	// rows of the Collection of, at version (0 = nothing usable yet). of
	// differs from a prober's collection when the name was dropped and
	// re-created while an old handle was in use.
	db      *DB
	mu      sync.Mutex
	bt      *btree.Tree
	hash    *hashidx.Index
	of      *Collection
	rows    int
	version uint64
	// Hash postings, also guarded by mu: the tail chunk of each value
	// (by sort key) whose tail is past chunk 0, and scratch for a
	// posting chunk's hash key and ids.
	tails    map[string]uint32
	key, ids []byte
}

type idxDesc struct {
	Kind    IndexKind `json:"kind"`
	Col     string    `json:"col"`
	Field   string    `json:"field"`
	Root    uint64    `json:"root,omitempty"` // btree root or hash meta page
	Version uint64    `json:"version,omitempty"`
}

func indexKey(col, field string, kind IndexKind) string {
	return fmt.Sprintf("idx.%s.%s.%s", col, field, kind)
}

// BuildIndex builds a hash or B+ tree index over field on col's current
// snapshot and registers it; an existing one is rebuilt in place.
func (db *DB) BuildIndex(col *Collection, field string, kind IndexKind) (*Index, error) {
	// Build = create empty + the maintenance every probe runs.
	idx, err := db.openIndex(col, field, kind, true)
	if err != nil {
		return nil, err
	}
	patches, version, err := col.Snapshot()
	if err != nil {
		return nil, err
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	idx.version = 0
	if _, err := idx.sync(patches, version); err != nil {
		return nil, err
	}
	return idx, nil
}

func (db *DB) saveIndexDesc(d idxDesc) error {
	dv, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return db.sys.Put([]byte(indexKey(d.Col, d.Field, d.Kind)), dv)
}

// registered returns the in-memory index under key, or nil.
func (db *DB) registered(key string) *indexCore {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.indexes[key]
}

// Index returns a registered index, reopening a persisted one. Returns
// ErrNotFound when no such index was ever built.
func (db *DB) Index(col *Collection, field string, kind IndexKind) (*Index, error) {
	return db.openIndex(col, field, kind, false)
}

// EnsureIndex is Index creating the index when none exists. Creation is
// free — the first probe builds it — and atomic: concurrent first users
// share one Index and one build.
func (db *DB) EnsureIndex(col *Collection, field string, kind IndexKind) (*Index, error) {
	return db.openIndex(col, field, kind, true)
}

// openIndex returns a handle for col on the one structure serving (col's
// name, field, kind): the registered one; else from the descriptor —
// reopened if the collection still stands at the version it recorded and
// otherwise left for the first probe to rebuild; else, with create, a
// new empty one.
func (db *DB) openIndex(col *Collection, field string, kind IndexKind, create bool) (*Index, error) {
	if kind != IdxBTree && kind != IdxHash {
		return nil, fmt.Errorf("core: unknown index kind %v", kind)
	}
	key := indexKey(col.Name(), field, kind)
	if ic := db.registered(key); ic != nil {
		return &Index{ic, col}, nil
	}
	ic := &indexCore{Kind: kind, Col: col.Name(), Field: field, db: db}
	v, err := db.sys.Get([]byte(key))
	switch {
	case err != nil && !create:
		return nil, fmt.Errorf("%w: index %s on %s.%s", ErrNotFound, kind, col.Name(), field)
	case err != nil: // nothing persisted: the index starts empty
	default:
		var d idxDesc
		if err := json.Unmarshal(v, &d); err != nil {
			return nil, err
		}
		snap, ver, err := col.Snapshot()
		if err != nil {
			return nil, err
		}
		// Opened at another version the structure stays unusable (version
		// 0) but attached, so the first probe's rebuild frees its pages.
		if kind == IdxBTree {
			ic.bt = btree.Open(db.store.Pager(), d.Root)
		} else {
			ic.hash, err = hashidx.Open(db.store.Pager(), d.Root)
		}
		switch {
		case ver != d.Version:
		case err != nil:
			return nil, err
		default:
			ic.of, ic.rows, ic.version = col, len(snap), ver
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if cur := db.indexes[key]; cur != nil {
		return &Index{cur, col}, nil // raced another opener: its value is the one everybody locks
	}
	db.indexes[key] = ic
	return &Index{ic, col}, nil
}

// HasIndex reports whether an index exists without building it.
func (db *DB) HasIndex(col *Collection, field string, kind IndexKind) bool {
	key := indexKey(col.Name(), field, kind)
	if db.registered(key) != nil {
		return true
	}
	_, err := db.sys.Get([]byte(key))
	return err == nil
}

// sync brings a hash or B+ tree index current for the snapshot (snap,
// ver) of the handle's collection and reports what that took; callers
// hold idx.mu. Over the same collection the row cache only grows, so
// the covered rows certify themselves: hit when the version matches or
// snap is shorter (a reader behind the index; probe drops the ids it
// cannot see), else extend — only snap[rows:] is inserted, by the loop a
// build runs, so the structure is the one a fresh build over snap
// produces. Anything else (nothing usable, another collection) rebuilds
// into a new structure and, once the descriptor names it, frees the
// replaced one's pages.
func (idx *Index) sync(snap []*Patch, ver uint64) (Refresh, error) {
	use, from := RefreshRebuild, 0
	if idx.version != 0 && idx.of == idx.col {
		if ver == idx.version || len(snap) < idx.rows {
			return RefreshHit, nil
		}
		use, from = RefreshExtend, idx.rows
	}
	start := time.Now()
	// A failure below leaves the structure half-written: version 0 makes
	// the next probe rebuild rather than trust it.
	idx.version = 0
	oldBT, oldHash := idx.bt, idx.hash
	if use == RefreshRebuild {
		var err error
		if idx.Kind == IdxBTree {
			idx.bt = btree.New(idx.db.store.Pager())
		} else if idx.hash, err = hashidx.Create(idx.db.store.Pager()); err != nil {
			return use, err
		}
		clear(idx.tails)
	}
	for _, p := range snap[from:] {
		if err := idx.insert(p); err != nil {
			return use, err
		}
	}
	d := idxDesc{Kind: idx.Kind, Col: idx.Col, Field: idx.Field, Version: ver}
	if idx.Kind == IdxBTree {
		d.Root = idx.bt.Root()
	} else {
		if err := idx.hash.Flush(); err != nil {
			return use, err
		}
		d.Root = idx.hash.Meta()
	}
	if err := idx.db.saveIndexDesc(d); err != nil {
		return use, err
	}
	idx.of, idx.rows, idx.version = idx.col, len(snap), ver
	r := &idx.db.refresh
	if use == RefreshRebuild {
		idx.BuildTime = time.Since(start)
		r.scalarRebuilds.Add(1)
		// Nothing refers to the replaced structure any more. A failed
		// free only leaks its remaining pages; the new index serves.
		switch {
		case oldBT != nil:
			_ = oldBT.Free()
		case oldHash != nil:
			_ = oldHash.Free()
		}
	} else {
		r.scalarExtends.Add(1)
	}
	r.scalarInserted.Add(int64(len(snap) - from))
	return use, nil
}

// probe runs look against the index made current for (snap, ver), all
// under the index mutex, and returns exactly the ids visible in snap
// together with what making the index current took.
func (idx *Index) probe(snap []*Patch, ver uint64, look func() ([]PatchID, error)) ([]PatchID, Refresh, error) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	use, err := idx.sync(snap, ver)
	if err != nil {
		return nil, use, err
	}
	ids, err := look()
	if err != nil || len(snap) >= idx.rows {
		return ids, use, err
	}
	// Rows are id-ordered: the ones past snap are those above its last id.
	var last PatchID
	if len(snap) > 0 {
		last = snap[len(snap)-1].ID
	}
	return slices.DeleteFunc(ids, func(id PatchID) bool { return id > last }), use, nil
}

// insert adds p's entry. B+ tree: a composite (field value, patch id)
// key, duplicate-tolerant, so prefix scans give equality and range
// lookups. Hash: the id appended to the value's tail chunk, the first
// with room. tails names it for values past chunk 0; a value it does not
// name (every value of a reopened structure) walks from chunk 0 once.
// The chunk is read into, and written back from, the scratch buffers, so
// a steady-state insert allocates nothing.
func (idx *Index) insert(p *Patch) error {
	v, ok := p.Get(idx.Field)
	if !ok {
		return fmt.Errorf("core: patch %d lacks field %q", p.ID, idx.Field)
	}
	if idx.Kind == IdxBTree {
		sk, err := v.SortKey()
		if err != nil {
			return err
		}
		return idx.bt.Put(binary.BigEndian.AppendUint64(compositePrefix(sk), uint64(p.ID)), nil)
	}
	sk, err := v.AppendSortKey(idx.key[:0])
	if err != nil {
		return err
	}
	idx.key = sk
	tail := idx.tails[string(sk)]
	c := tail
	for ; ; c++ {
		if err := idx.readChunk(len(sk), c); err != nil {
			return err
		}
		if len(idx.ids)/8 < postingChunk {
			break
		}
	}
	if c != tail {
		if idx.tails == nil {
			idx.tails = make(map[string]uint32)
		}
		idx.tails[string(sk)] = c
	}
	idx.ids = binary.LittleEndian.AppendUint64(idx.ids, uint64(p.ID))
	return idx.hash.Put(idx.key, idx.ids)
}

// readChunk reads posting chunk c of the value whose sort key is
// idx.key[:n] into idx.ids — empty when absent — and leaves the chunk's
// hash key, sort key || chunk number, in idx.key. A value's chunks hold
// postingChunk ids each but the last.
func (idx *Index) readChunk(n int, c uint32) error {
	idx.key = binary.BigEndian.AppendUint32(idx.key[:n], c)
	ids, err := idx.hash.GetAppend(idx.ids[:0], idx.key)
	switch {
	case err == nil:
		idx.ids = ids
	case errors.Is(err, hashidx.ErrNotFound):
		idx.ids = idx.ids[:0]
	default:
		return err
	}
	return nil
}

const postingChunk = 400

// compositePrefix is the part of a composite key that encodes the value.
func compositePrefix(sk []byte) []byte {
	return append(binary.BigEndian.AppendUint16(make([]byte, 0, 2+len(sk)+8), uint16(len(sk))), sk...)
}

func compositePatchID(k []byte) PatchID {
	return PatchID(binary.BigEndian.Uint64(k[len(k)-8:]))
}

// LookupEq returns the ids of the patches in snap with field == v, after
// bringing the index current for (snap, ver) — the snapshot the caller
// executes over, so index contents and query visibility can never skew.
func (idx *Index) LookupEq(snap []*Patch, ver uint64, v Value) ([]PatchID, error) {
	ids, _, err := idx.lookupEq(snap, ver, v)
	return ids, err
}

// lookupEq is LookupEq reporting what bringing the index current took.
func (idx *Index) lookupEq(snap []*Patch, ver uint64, v Value) ([]PatchID, Refresh, error) {
	sk, err := v.SortKey()
	if err != nil {
		return nil, 0, err
	}
	switch {
	case v.Kind == KindFloat && math.IsNaN(v.Float()): // NaN equals nothing, itself included
		return idx.probe(snap, ver, func() ([]PatchID, error) { return nil, nil })
	case idx.Kind == IdxHash:
		return idx.probe(snap, ver, func() ([]PatchID, error) {
			var out []PatchID
			idx.key = append(idx.key[:0], sk...)
			for c := uint32(0); ; c++ {
				if err := idx.readChunk(len(sk), c); err != nil {
					return nil, err
				}
				for off := 0; off+8 <= len(idx.ids); off += 8 {
					out = append(out, PatchID(binary.LittleEndian.Uint64(idx.ids[off:])))
				}
				if len(idx.ids)/8 < postingChunk {
					return out, nil
				}
			}
		})
	default:
		// B+ tree: every composite key of the value, and no other, sorts
		// between its prefix and the prefix followed by an id past the
		// largest.
		prefix := compositePrefix(sk)
		return idx.scan(snap, ver, prefix, append(bytes.Clone(prefix), bytes.Repeat([]byte{0xFF}, 9)...))
	}
}

// LookupRange returns the ids of the patches in snap with lo <= field <
// hi (B+ tree only; nil bounds are unbounded), current for (snap, ver)
// like LookupEq.
func (idx *Index) LookupRange(snap []*Patch, ver uint64, lo, hi *Value) ([]PatchID, error) {
	ids, _, err := idx.lookupRange(snap, ver, lo, hi)
	return ids, err
}

// lookupRange is LookupRange reporting what bringing the index current
// took.
func (idx *Index) lookupRange(snap []*Patch, ver uint64, lo, hi *Value) ([]PatchID, Refresh, error) {
	if idx.Kind != IdxBTree {
		return nil, 0, fmt.Errorf("core: %v index does not support range lookup", idx.Kind)
	}
	var keys [2][]byte
	for i, bound := range []*Value{lo, hi} {
		if bound != nil {
			sk, err := bound.SortKey()
			if err != nil {
				return nil, 0, err
			}
			keys[i] = compositePrefix(sk)
		}
	}
	return idx.scan(snap, ver, keys[0], keys[1])
}

// numericRange resolves the half-open range [lo, hi) against a B+ tree
// index with the row predicate's numeric widening (ints compare as
// floats, see Pred). Sort keys are kind-prefixed, so int-keyed and
// float-keyed rows occupy disjoint key regions and one key-space scan
// cannot serve the widening: the range runs as two probes against the
// caller's snapshot, one per numeric kind, with the bounds converted
// into each kind's key space. The id union is returned ascending, which
// is snapshot order (rows are id-ordered), so the probe returns rows in
// the same order as the scans. The Refresh is the first probe's; the
// second always hits.
func (idx *Index) numericRange(snap []*Patch, ver uint64, lo, hi float64) ([]PatchID, Refresh, error) {
	// Float probe: an inclusive -Inf low and an exclusive +Inf high are
	// exactly the scan semantics at open sides (a stored +Inf fails
	// v < +Inf; NaN keys sort past +Inf and are excluded with it). NaN
	// bounds and empty intervals match nothing.
	fLo, fHi := FloatV(lo), FloatV(hi)
	ids, use, err := idx.lookupRange(snap, ver, &fLo, &fHi)
	if err != nil || !(lo < hi) {
		return nil, use, err
	}
	// Int probe: lo <= float64(v) < hi is the int key range
	// [intCeil(lo), intCeil(hi)); with no int64 at or past hi it is open
	// above, fenced by the float -Inf key, the first after the int region.
	if iLo, ok := intCeil(lo); ok {
		intLo, intHi := IntV(iLo), FloatV(math.Inf(-1))
		if iHi, ok := intCeil(hi); ok {
			intHi = IntV(iHi)
		}
		got, _, err := idx.lookupRange(snap, ver, &intLo, &intHi)
		if err != nil {
			return nil, use, err
		}
		ids = append(ids, got...)
	}
	slices.Sort(ids)
	return ids, use, nil
}

// intCeil is the smallest int64 t with float64(t) >= x, and false when
// none exists. The conversion rounds but never decreases as t grows, so
// t >= intCeil(x) <=> float64(t) >= x — the widening the row predicate
// applies, exact also past 2^53 where neighbouring ints share a float.
func intCeil(x float64) (int64, bool) {
	if !(x <= 1<<63) { // NaN, or past float64(MaxInt64) == 2^63
		return 0, false
	}
	if x <= -(1 << 63) {
		return math.MinInt64, true
	}
	t := int64(math.MaxInt64)
	if x < 1<<63 {
		t = int64(math.Ceil(x))
	}
	for float64(t-1) >= x { // at most half an ulp of steps, past 2^53 only
		t--
	}
	return t, true
}

// scan is the B+ tree probe: the ids under keys in [lo, hi), key order.
func (idx *Index) scan(snap []*Patch, ver uint64, lo, hi []byte) ([]PatchID, Refresh, error) {
	return idx.probe(snap, ver, func() (out []PatchID, err error) {
		err = idx.bt.Scan(lo, hi, func(k, _ []byte) bool {
			out = append(out, compositePatchID(k))
			return true
		})
		return out, err
	})
}
