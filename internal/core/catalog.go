package core

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/kv"
)

// DB is a DeepLens database: a page file holding materialized patch
// collections, persistent indexes and the catalog, plus the execution
// device query operators run on.
//
// The catalog is safe for concurrent use: readers (Collection, HasIndex,
// snapshot scans) take a shared lock while writers (create, drop) take it
// exclusively, so a serving layer can run many queries in parallel with
// occasional catalog mutations.
type DB struct {
	mu    sync.RWMutex
	store *kv.Store
	dev   exec.Device

	// nextID is the patch-id allocator. It is atomic, not under mu: an
	// append takes its id while it holds its collection's lock, and Flush
	// takes mu before a collection's lock.
	nextID  atomic.Uint64
	nextVer atomic.Uint64 // collection-version counter (cache invalidation)

	sys     *kv.Bucket // catalog + counters
	cols    map[string]*Collection
	indexes map[string]*indexCore // descriptor key (indexKey) -> index

	// refresh counts accelerator maintenance, read as RefreshStats.
	refresh struct {
		colExtends, colReused, colTotal               atomic.Int64
		vecExtends, vecRebuilds                       atomic.Int64
		knnIndexEvals, knnScanEvals                   atomic.Int64
		scalarExtends, scalarRebuilds, scalarInserted atomic.Int64
	}

	// cost is the planner's cost model: static constants, set once by
	// Open.
	cost *CostModel

	// segCache, when installed, tiers every collection's column store:
	// sealed segments keep their encoding in memory and the shared cache
	// budgets how many stay decoded. Nil (the default) keeps column
	// stores purely in-memory.
	segCache atomic.Pointer[SegmentCache]
}

// RefreshStats is a DB's accelerator record: what bringing column
// stores, vector indexes and hash/B+ tree indexes current for query
// snapshots took (see Refresh), and the distances kNN probes evaluated.
type RefreshStats struct {
	ColumnExtends      int64 // column stores extended by the appended rows
	ColumnReusedBlocks int64 // sealed blocks those extensions carried over,
	ColumnTotalBlocks  int64 // of the blocks they hold (the rest re-projected tails)
	VectorExtends      int64 // vector indexes extended by the appended rows
	VectorRebuilds     int64 // vector indexes built in full
	ScalarExtends      int64 // hash/B+ tree probes that inserted only the appended rows
	ScalarRebuilds     int64 // hash/B+ tree indexes built in full
	ScalarInserted     int64 // rows those extensions and builds inserted
	KNNIndexEvals      int64 // distances exact vector-index probes evaluated
	KNNScanEvals       int64 // distances brute kNN scans evaluated
}

// RefreshStats reports the DB's accelerator-maintenance record.
func (db *DB) RefreshStats() RefreshStats {
	var s RefreshStats
	db.addRefreshStats(&s)
	return s
}

// addRefreshStats adds the DB's counters to s.
func (db *DB) addRefreshStats(s *RefreshStats) {
	r := &db.refresh
	s.ColumnExtends += r.colExtends.Load()
	s.ColumnReusedBlocks += r.colReused.Load()
	s.ColumnTotalBlocks += r.colTotal.Load()
	s.VectorExtends += r.vecExtends.Load()
	s.VectorRebuilds += r.vecRebuilds.Load()
	s.ScalarExtends += r.scalarExtends.Load()
	s.ScalarRebuilds += r.scalarRebuilds.Load()
	s.ScalarInserted += r.scalarInserted.Load()
	s.KNNIndexEvals += r.knnIndexEvals.Load()
	s.KNNScanEvals += r.knnScanEvals.Load()
}

// ErrNotFound reports a missing collection, patch or index.
var ErrNotFound = errors.New("core: not found")

// Open opens (or creates) a database at path on the given device.
func Open(path string, dev exec.Device) (*DB, error) {
	st, err := kv.Open(path)
	if err != nil {
		return nil, err
	}
	sys, err := st.Bucket("sys.catalog")
	if err != nil {
		st.Close()
		return nil, err
	}
	db := &DB{
		store: st, dev: dev, sys: sys,
		cols:    make(map[string]*Collection),
		indexes: make(map[string]*indexCore),
		cost:    DefaultCostModel(),
	}
	if v, err := sys.Get([]byte("nextid")); err == nil {
		db.nextID.Store(kv.ParseU64Key(v))
	}
	if v, err := sys.Get([]byte("nextver")); err == nil {
		db.nextVer.Store(kv.ParseU64Key(v))
	}
	// Load collection descriptors.
	if err := sys.Scan([]byte("col."), []byte("col/"), func(k, v []byte) bool {
		var d colDesc
		if json.Unmarshal(v, &d) == nil {
			db.cols[d.Name] = nil // lazily opened
		}
		return true
	}); err != nil {
		st.Close()
		return nil, err
	}
	return db, nil
}

// Cost returns the DB's cost model (never nil for an opened DB).
func (db *DB) Cost() *CostModel { return db.cost }

// SetSegmentCache installs the shared column-segment cache, enabling
// the tiered column store: sealed segments keep their encoding in
// memory and the cache byte-budgets how many stay decoded. The serving
// layer installs one cache across every replica DB so a single budget
// governs the whole process. Nil caches are ignored. Install before the
// first query: a store built without a cache, and the stores extended
// from it, keep every segment decoded.
func (db *DB) SetSegmentCache(sc *SegmentCache) {
	if sc != nil {
		db.segCache.Store(sc)
	}
}

// SegmentCache returns the installed segment cache (nil when the column
// stores are purely in-memory).
func (db *DB) SegmentCache() *SegmentCache {
	return db.segCache.Load()
}

// Device returns the execution device the engine runs kernels on.
func (db *DB) Device() exec.Device { return db.dev }

// nextVersion allocates a database-wide monotonic collection version.
// Versions never repeat, even across drop/re-create of the same name, so
// a (name, version) pair is a stable cache-key component.
func (db *DB) nextVersion() uint64 { return db.nextVer.Add(1) }

// Store exposes the underlying kv store (for persistent indexes).
func (db *DB) Store() *kv.Store { return db.store }

// Close flushes and closes the database.
func (db *DB) Close() error {
	if err := db.Flush(); err != nil {
		db.store.Close()
		return err
	}
	return db.store.Close()
}

// Flush persists all dirty state without closing, including every open
// collection's descriptor (count updates from direct Appends).
func (db *DB) Flush() error {
	db.mu.Lock()
	if err := db.sys.Put([]byte("nextid"), kv.U64Key(db.nextID.Load())); err != nil {
		db.mu.Unlock()
		return err
	}
	if err := db.sys.Put([]byte("nextver"), kv.U64Key(db.nextVer.Load())); err != nil {
		db.mu.Unlock()
		return err
	}
	for _, c := range db.cols {
		if c == nil {
			continue
		}
		if err := c.saveDesc(); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	db.mu.Unlock()
	return db.store.Flush()
}

// NewPatchID allocates a database-unique patch id.
func (db *DB) NewPatchID() PatchID { return PatchID(db.nextID.Add(1)) }

type colDesc struct {
	Name    string `json:"name"`
	Schema  Schema `json:"schema"`
	Count   int    `json:"count"`
	Version uint64 `json:"version,omitempty"`
}

// CreateCollection registers a new (empty) materialized collection.
func (db *DB) CreateCollection(name string, schema Schema) (*Collection, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.cols[name]; ok {
		return nil, fmt.Errorf("core: collection %q already exists", name)
	}
	if _, err := db.sys.Get([]byte("col." + name)); err == nil {
		return nil, fmt.Errorf("core: collection %q already exists on disk", name)
	}
	b, err := db.store.Bucket("col." + name)
	if err != nil {
		return nil, err
	}
	c := &Collection{db: db, name: name, schema: schema, bucket: b, version: db.nextVersion()}
	if err := c.saveDesc(); err != nil {
		return nil, err
	}
	db.cols[name] = c
	return c, nil
}

// Collection opens an existing collection by name.
func (db *DB) Collection(name string) (*Collection, error) {
	db.mu.RLock()
	if c, ok := db.cols[name]; ok && c != nil {
		db.mu.RUnlock()
		return c, nil
	}
	db.mu.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if c, ok := db.cols[name]; ok && c != nil { // raced another opener
		return c, nil
	}
	v, err := db.sys.Get([]byte("col." + name))
	if err != nil {
		return nil, fmt.Errorf("%w: collection %q", ErrNotFound, name)
	}
	var d colDesc
	if err := json.Unmarshal(v, &d); err != nil {
		return nil, err
	}
	b, err := db.store.Bucket("col." + name)
	if err != nil {
		return nil, err
	}
	c := &Collection{db: db, name: name, schema: d.Schema, bucket: b, count: d.Count, version: d.Version}
	if c.version == 0 {
		c.version = db.nextVersion() // pre-versioning database file
	}
	db.cols[name] = c
	return c, nil
}

// Collections lists materialized collection names in sorted order.
func (db *DB) Collections() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.cols))
	for n := range db.cols {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// DropCollection removes a collection: its patches, spilled column
// segments, catalog descriptor, and any index descriptors. A later
// collection with the same name gets a fresh version, so plan
// fingerprints keyed on (name, version) can never alias stale cached
// results after re-ingest.
func (db *DB) DropCollection(name string) error {
	// The descriptor must disappear while the catalog lock is held:
	// otherwise a concurrent Collection(name) between the map delete and
	// the descriptor delete would re-open the half-dropped collection
	// and resurrect it into db.cols.
	db.mu.Lock()
	c := db.cols[name]
	_, descErr := db.sys.Get([]byte("col." + name))
	if c == nil && descErr != nil {
		db.mu.Unlock()
		return fmt.Errorf("%w: collection %q", ErrNotFound, name)
	}
	delete(db.cols, name)
	for k, idx := range db.indexes {
		if idx.Col == name {
			delete(db.indexes, k)
		}
	}
	if descErr == nil {
		if err := db.sys.Delete([]byte("col." + name)); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	db.mu.Unlock()
	b, err := db.store.Bucket("col." + name)
	if err != nil {
		return err
	}
	var keys [][]byte
	if err := b.Scan(nil, nil, func(k, _ []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	}); err != nil {
		return err
	}
	for _, k := range keys {
		if err := b.Delete(k); err != nil {
			return err
		}
	}
	// Index descriptors for this collection.
	var idxKeys [][]byte
	prefix := []byte("idx." + name + ".")
	end := []byte("idx." + name + "/")
	if err := db.sys.Scan(prefix, end, func(k, _ []byte) bool {
		idxKeys = append(idxKeys, append([]byte(nil), k...))
		return true
	}); err != nil {
		return err
	}
	for _, k := range idxKeys {
		if err := db.sys.Delete(k); err != nil && !errors.Is(err, kv.ErrNotFound) {
			return err
		}
	}
	return nil
}

// Materialize drains it into a new collection (paper §4.1 Materialize).
func (db *DB) Materialize(name string, schema Schema, it Iterator) (*Collection, error) {
	c, err := db.CreateCollection(name, schema)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		for _, p := range t {
			if err := c.Append(p); err != nil {
				return nil, err
			}
		}
	}
	if err := c.saveDesc(); err != nil {
		return nil, err
	}
	return c, nil
}

// GetPatch resolves a patch id anywhere in the database (lineage chains
// cross collections). Patch ids are database-unique, so it probes each
// collection in name order and the first that holds the id answers.
func (db *DB) GetPatch(id PatchID) (*Patch, error) {
	for _, name := range db.Collections() {
		col, err := db.Collection(name)
		if errors.Is(err, ErrNotFound) {
			continue // dropped since the listing
		}
		if err != nil {
			return nil, err
		}
		p, err := col.Get(id)
		if !errors.Is(err, ErrNotFound) {
			return p, err
		}
	}
	return nil, fmt.Errorf("%w: patch %d", ErrNotFound, id)
}

// Backtrace follows a patch's lineage chain to its base (§5.1): the
// returned slice starts at p's parent and ends at the patch with no
// parent; the final Ref's Source/Frame identify the raw image.
func (db *DB) Backtrace(p *Patch) ([]*Patch, error) { return backtrace(p, db.GetPatch) }

// backtrace walks p's parent pointers, resolving each through get.
func backtrace(p *Patch, get func(PatchID) (*Patch, error)) ([]*Patch, error) {
	var chain []*Patch
	for cur := p; cur.Ref.Parent != 0; {
		parent, err := get(cur.Ref.Parent)
		if err != nil {
			return chain, err
		}
		chain = append(chain, parent)
		cur = parent
	}
	return chain, nil
}

// Collection is a named materialized set of patches persisted in one kv
// bucket, with an in-memory cache for repeated scans.
//
// Patch ids are issued at commit, under the collection's lock, so one
// row order holds everywhere: ascending id, in the row cache, the bucket,
// every index and after a reopen. Concurrent readers and writers are
// safe: Snapshot returns a stable view (appends never mutate a handed-out
// snapshot's visible prefix) together with the version it reflects.
type Collection struct {
	db     *DB
	name   string
	schema Schema
	bucket *kv.Bucket

	// mu guards the commit: the bucket write, count, version and the row
	// cache, which is nil until loaded (see load).
	mu      sync.Mutex
	count   int
	version uint64
	cache   []*Patch

	// colMu guards the columnar projection of the current snapshot
	// (built lazily by Columns, invalidated by version movement).
	colMu    sync.Mutex
	colStore *ColumnStore

	// vecMu guards the cached vector indexes, keyed field + "/" + mode
	// (built lazily by VectorIndexAt, maintained like colStore).
	vecMu  sync.Mutex
	vecIdx map[string]*VectorIndex
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Schema returns the collection's schema.
func (c *Collection) Schema() Schema { return c.schema }

// Len returns the number of patches.
func (c *Collection) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Version returns the collection's current version. It advances on every
// write, and a re-created collection of the same name never reuses an old
// version, so (Name, Version) canonically identifies the visible contents
// — the dataset component of a plan fingerprint.
func (c *Collection) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

func (c *Collection) saveDesc() error {
	c.mu.Lock()
	d := colDesc{Name: c.name, Schema: c.schema, Count: c.count, Version: c.version}
	c.mu.Unlock()
	v, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return c.db.sys.Put([]byte("col."+c.name), v)
}

// ErrIDOrder reports an append whose patch id is not above the last id
// its collection holds: committing it would break the id order of rows.
var ErrIDOrder = errors.New("core: patch id out of order")

// Append seals, validates, ids, and persists a patch. A committed row
// answers the lineage attributes _source and _frame from Ref, so
// indexes and queries work on provenance natively (§5.1). A patch
// without an id gets the next one inside the commit; one with an id not
// above the collection's last is refused with ErrIDOrder.
func (c *Collection) Append(p *Patch) error {
	if err := c.prepare(p); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.ID == 0 {
		p.ID = c.db.NewPatchID()
	}
	return c.putLocked(p, p.Marshal())
}

// prepare seals a builder patch and validates the committed form
// against the schema: everything Append does before the write. A
// builder that fails validation is left a builder. A sealed patch is
// only validated: it may be a committed row that readers share.
func (c *Collection) prepare(p *Patch) error {
	s := p
	if !p.sealed() {
		s = &Patch{Ref: p.Ref, Data: p.Data}
		s.Seal(metaPairs(p.Meta))
	}
	if err := c.schema.ValidatePatch(s); err != nil {
		return fmt.Errorf("collection %q: %w", c.name, err)
	}
	if s != p {
		p.Meta, p.pairs = nil, s.pairs
	}
	return nil
}

// metaPairs lists m's entries but the lineage keys, which sealing drops,
// in an array of exactly their number.
func metaPairs(m Metadata) []Pair {
	n := len(m)
	for _, k := range [...]string{frameKey, sourceKey} {
		if _, ok := m[k]; ok {
			n--
		}
	}
	pairs := make([]Pair, 0, n)
	for k, v := range m {
		if k != frameKey && k != sourceKey {
			pairs = append(pairs, Pair{k, v})
		}
	}
	return pairs
}

// put commits a prepared patch, raw being its Marshal encoding.
func (c *Collection) put(p *Patch, raw []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(p, raw)
}

// putLocked is put under c.mu: the storage write and the count, version
// and row-cache update commit as one critical section. The cache is
// loaded first, to learn the last id.
func (c *Collection) putLocked(p *Patch, raw []byte) error {
	if err := c.load(); err != nil {
		return err
	}
	if n := len(c.cache); n > 0 && p.ID <= c.cache[n-1].ID {
		return fmt.Errorf("%w: %d after %d in %q", ErrIDOrder, p.ID, c.cache[n-1].ID, c.name)
	}
	if err := c.bucket.Put(kv.U64Key(uint64(p.ID)), raw); err != nil {
		return err
	}
	c.count++
	c.version = c.db.nextVersion()
	c.cache = append(c.cache, p)
	return nil
}

// Get fetches one patch by id: a binary search of the id-ordered row
// cache, loaded on first use. A miss is ErrNotFound itself.
func (c *Collection) Get(id PatchID) (*Patch, error) {
	ps, _, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	i, ok := slices.BinarySearchFunc(ps, id, func(p *Patch, id PatchID) int { return cmp.Compare(p.ID, id) })
	if !ok {
		return nil, ErrNotFound
	}
	return ps[i], nil
}

// Patches returns all patches, loading and caching them on first use.
func (c *Collection) Patches() ([]*Patch, error) {
	ps, _, err := c.Snapshot()
	return ps, err
}

// Snapshot atomically returns the collection's patches, in id order, and
// the version they reflect. The returned slice is immutable from the
// reader's point of view: concurrent Appends grow the cache beyond the
// snapshot's length but never mutate its visible prefix, so many queries
// can share one snapshot while writers proceed (the catalog's
// copy-on-write read path).
func (c *Collection) Snapshot() ([]*Patch, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.load(); err != nil {
		return nil, 0, err
	}
	return c.cache, c.version, nil
}

// load fills the row cache from the bucket, in key (= id) order, unless
// it is loaded; an empty collection's cache is loaded and empty. Callers
// hold c.mu: the one load path, which appends wait out.
func (c *Collection) load() error {
	if c.cache != nil {
		return nil
	}
	out := make([]*Patch, 0, c.count)
	d := patchDecoder{fields: c.schema.Fields}
	var scanErr error
	err := c.bucket.Scan(nil, nil, func(_, v []byte) bool {
		p, err := d.decode(v)
		if err != nil {
			scanErr = err
			return false
		}
		out = append(out, p)
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}
	c.cache, c.count = out, len(out)
	return nil
}

// Columns returns the columnar projection of the collection's current
// snapshot, building it lazily and upgrading whenever the version has
// moved — the same version-keyed invalidation the serving layer's result
// cache uses, so appends can never serve a stale column. The row cache
// only grows, so the upgrade is an incremental Extend that reuses every
// sealed block and re-projects only the tail; the first touch builds.
// The returned store is immutable and safe to share across queries.
func (c *Collection) Columns() (*ColumnStore, error) {
	cs, _, err := c.ColumnsWithInfo()
	return cs, err
}

// ColumnsInfo reports what one Columns call did — the per-call view of
// the DB's RefreshStats, so trace spans can attribute extension work to
// the query that paid for it.
type ColumnsInfo struct {
	Refresh Refresh
	Extend  ExtendStats // populated when Refresh is RefreshExtend
}

// ColumnsWithInfo is Columns reporting whether this call hit the
// cached store, extended it, or built it.
func (c *Collection) ColumnsWithInfo() (*ColumnStore, ColumnsInfo, error) {
	var info ColumnsInfo
	ps, ver, err := c.Snapshot()
	if err != nil {
		return nil, info, err
	}
	cs, use, err := refreshCached(&c.colMu,
		func() *ColumnStore { return c.colStore },
		func(cs *ColumnStore) { c.colStore = cs },
		ps, ver,
		func(prefix *ColumnStore) (*ColumnStore, Refresh, error) {
			if prefix == nil {
				return newColumnStore(ps, ver, c.db.SegmentCache()), RefreshRebuild, nil
			}
			next, st := prefix.Extend(ps, ver)
			info.Extend = st
			r := &c.db.refresh
			r.colExtends.Add(1)
			r.colReused.Add(int64(st.ReusedBlocks))
			r.colTotal.Add(int64(st.TotalBlocks))
			return next, RefreshExtend, nil
		})
	info.Refresh = use
	return cs, info, err
}

// versioned is what a collection's accelerator cache slot holds: an
// immutable structure derived from the first rows of the collection at
// one version. covers answers (0, 0) on a nil receiver — an empty slot,
// older than any real version.
type versioned interface {
	covers() (rows int, version uint64)
}

// refreshCached serves the accelerator cached in one slot — read and
// written through get/set, both called under mu — current exactly as of
// the caller's snapshot (snap, ver): the protocol the column store and
// the vector indexes share. The cached value is returned while its
// version matches. Otherwise derive makes the new one: from the cached
// value when snap holds at least the rows it covers (the row cache only
// grows, so snap extends it by snap[rows:]), and from nil when the slot
// is empty or snap is shorter — a reader behind the slot. derive runs
// with mu free — a full build is O(snapshot), and holding the lock would
// stall every cache-hit reader of the collection — so racing callers may
// duplicate work; the install keeps one canonical value per version,
// adopting a raced winner's, and only moves the slot forward: a reader
// behind gets a private value without evicting the newer one.
func refreshCached[T versioned](mu *sync.Mutex, get func() T, set func(T), snap []*Patch, ver uint64,
	derive func(prefix T) (T, Refresh, error)) (T, Refresh, error) {
	mu.Lock()
	old := get()
	mu.Unlock()
	rows, oldVer := old.covers()
	if oldVer == ver {
		return old, RefreshHit, nil
	}
	var prefix T
	if oldVer != 0 && rows <= len(snap) {
		prefix = old
	}
	next, use, err := derive(prefix)
	if err != nil {
		return next, use, err
	}
	mu.Lock()
	defer mu.Unlock()
	cur := get()
	switch _, curVer := cur.covers(); {
	case curVer == ver:
		next = cur
	case curVer < ver:
		set(next)
	}
	return next, use, nil
}
