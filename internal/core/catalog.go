package core

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/kv"
)

// DB is a DeepLens database: a catalog file (see catalogfile.go), one
// row log beside it per materialized patch collection (see rowlog.go),
// and the execution device query operators run on. Everything else a
// query uses — columns, their segments' sort orders (the hash and B+
// tree indexes), vector indexes — is built in memory from the rows.
//
// The catalog is safe for concurrent use: readers (Collection, HasIndex,
// snapshot scans) take a shared lock while writers (create, drop) take it
// exclusively, so a serving layer can run many queries in parallel with
// occasional catalog mutations.
type DB struct {
	mu   sync.RWMutex
	path string // the catalog file's; row logs are named after it
	dev  exec.Device

	// nextID is the patch-id allocator. It is atomic, not under mu: a
	// commit takes its ids while it holds its collection's lock, and Flush
	// takes mu before a collection's lock.
	nextID  atomic.Uint64
	nextVer atomic.Uint64 // collection-version counter (cache invalidation)

	cols    map[string]*Collection
	saved   []byte    // the catalog file as last read or written, under mu
	scratch *kv.Store // Store's, under mu

	// refresh counts accelerator maintenance, read as RefreshStats.
	refresh struct {
		colExtends, colReused, colTotal atomic.Int64
		vecExtends, vecRebuilds         atomic.Int64
		knnIndexEvals, knnScanEvals     atomic.Int64
		scalarSorted                    atomic.Int64
	}

	// segCache, when installed, tiers every collection's column store:
	// sealed segments keep their encoding in memory and the shared cache
	// budgets how many stay decoded. Nil (the default) keeps column
	// stores purely in-memory.
	segCache atomic.Pointer[SegmentCache]
}

// RefreshStats is a DB's accelerator record: what bringing column
// stores and vector indexes current for query snapshots took (see
// Refresh), the segment orders hash and B+ tree probes sorted, and the
// distances kNN probes evaluated.
type RefreshStats struct {
	ColumnExtends      int64 // column stores extended by the appended rows
	ColumnReusedBlocks int64 // sealed blocks those extensions carried over,
	ColumnTotalBlocks  int64 // of the blocks they hold (the rest re-projected tails)
	VectorExtends      int64 // vector indexes extended by the appended rows
	VectorRebuilds     int64 // vector indexes built in full
	ScalarSorted       int64 // sealed column segments sorted for hash/B+ tree probes
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
	s.ScalarSorted += r.scalarSorted.Load()
	s.KNNIndexEvals += r.knnIndexEvals.Load()
	s.KNNScanEvals += r.knnScanEvals.Load()
}

// ErrNotFound reports a missing collection or patch.
var ErrNotFound = errors.New("core: not found")

// Open opens (or creates) a database at path on the given device. A
// page file at path is imported (see importPageFile); the open then
// removes what a crash left beside the catalog (see sweep).
func Open(path string, dev exec.Device) (*DB, error) {
	db := &DB{path: path, dev: dev, cols: make(map[string]*Collection)}
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		err = nil // a new database: its first Flush writes the catalog
	case err != nil:
		return nil, err
	case isPageFile(raw):
		err = db.importPageFile()
	default:
		var cat catalog
		if cat, err = decodeCatalog(raw); err == nil {
			db.install(cat)
			db.saved = raw
		}
	}
	if err == nil {
		err = db.sweep()
	}
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", path, err)
	}
	return db, nil
}

// install opens cat's collections, unloaded, and resumes its counters.
// The version counter resumes past every version and log key a
// descriptor names, so a new row log never takes a live log's key.
func (db *DB) install(cat catalog) {
	db.nextID.Store(cat.NextID)
	db.nextVer.Store(cat.NextVer)
	for _, d := range cat.Cols {
		db.nextVer.Store(max(db.nextVer.Load(), d.Version, d.Log))
	}
	for _, d := range cat.Cols {
		c := &Collection{db: db, name: d.Name, schema: d.Schema, codec: newRowCodec(d.Schema), logKey: d.Log, count: d.Count, version: d.Version,
			indexes: d.Indexes}
		if c.version == 0 {
			c.version = db.nextVersion() // a page file from before versioning
		}
		db.cols[d.Name] = c
	}
}

// Cost returns the statistic-free kNN planner (see CostModel).
func (db *DB) Cost() *CostModel { return &CostModel{} }

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

// Store is a scratch kv store beside the catalog, opened on first call
// and deleted by Close, for the benchmark harness's kv probes. Nothing
// in the database reads or writes it. Its signature is the harness's,
// which takes no error, so a failed open panics.
func (db *DB) Store() *kv.Store {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.scratch == nil {
		var err error
		os.Remove(db.path + ".scratch")
		if db.scratch, err = kv.Open(db.path + ".scratch"); err != nil {
			panic(fmt.Errorf("core: open scratch store: %w", err))
		}
	}
	return db.scratch
}

// Close flushes the database and closes every loaded collection's row
// log.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.flushLocked()
	for _, c := range db.cols {
		c.mu.Lock()
		err = cmp.Or(err, c.log.close())
		c.mu.Unlock()
	}
	if db.scratch != nil {
		db.scratch.Close()
		os.Remove(db.path + ".scratch")
		db.scratch = nil
	}
	return err
}

// Flush persists all dirty state without closing: every loaded
// collection's tail block, synced with its row log, and then the
// catalog.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.flushLocked()
}

// flushLocked syncs every row log and then replaces the catalog file
// with one that describes the collections as synced, unless the file
// already holds it. Callers hold db.mu.
func (db *DB) flushLocked() error {
	cols := make([]colDesc, 0, len(db.cols))
	for _, c := range db.cols {
		c.mu.Lock()
		err := c.log.sync()
		cols = append(cols, colDesc{Name: c.name, Schema: c.schema, Count: c.count, Version: c.version, Log: c.logKey, Indexes: c.indexes})
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	slices.SortFunc(cols, func(a, b colDesc) int { return cmp.Compare(a.Name, b.Name) })
	// The counters are read after the syncs, past every id and version
	// the synced logs hold.
	raw, err := encodeCatalog(catalog{NextID: db.nextID.Load(), NextVer: db.nextVer.Load(), Cols: cols})
	if err != nil || bytes.Equal(raw, db.saved) {
		return err
	}
	if err = replaceFile(db.path, raw); err == nil {
		db.saved = raw
	}
	return err
}

// NewPatchID allocates a database-unique patch id.
func (db *DB) NewPatchID() PatchID { return PatchID(db.nextID.Add(1)) }

type colDesc struct {
	Name    string `json:"name"`
	Schema  Schema `json:"schema"`
	Count   int    `json:"count"`
	Version uint64 `json:"version,omitempty"`
	// Log is the key of the collection's row log (rowLogPath). A page
	// file's descriptor of a collection whose rows are still in its
	// bucket col.<name> holds 0.
	Log uint64 `json:"log,omitempty"`
	// Indexes are the declared hash and B+ tree indexes (see BuildIndex).
	Indexes []string `json:"indexes,omitempty"`
}

// CreateCollection registers a new (empty) materialized collection.
func (db *DB) CreateCollection(name string, schema Schema) (*Collection, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.cols[name]; ok {
		return nil, fmt.Errorf("core: collection %q already exists", name)
	}
	v := db.nextVersion()
	log, err := createRowLog(rowLogPath(db.path, v))
	if err != nil {
		return nil, err
	}
	c := &Collection{db: db, name: name, schema: schema, codec: newRowCodec(schema), logKey: v, version: v,
		log: log, cache: []*Patch{}}
	db.cols[name] = c
	return c, nil
}

// Collection opens an existing collection by name.
func (db *DB) Collection(name string) (*Collection, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if c, ok := db.cols[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("%w: collection %q", ErrNotFound, name)
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

// DropCollection removes a collection: its catalog descriptor, which
// holds its index declarations, and then its row log. A later
// collection with the same name gets a fresh version and row log, so
// plan fingerprints keyed on (name, version) can never alias stale
// cached results after re-ingest.
func (db *DB) DropCollection(name string) error {
	db.mu.Lock()
	c, ok := db.cols[name]
	if !ok {
		db.mu.Unlock()
		return fmt.Errorf("%w: collection %q", ErrNotFound, name)
	}
	// The catalog without the collection is on disk before its log goes,
	// so no reopen finds a descriptor whose log is gone.
	delete(db.cols, name)
	if err := db.flushLocked(); err != nil {
		db.cols[name] = c
		db.mu.Unlock()
		return err
	}
	db.mu.Unlock()
	c.mu.Lock()
	c.log.close()
	c.mu.Unlock()
	if err := removeFile(rowLogPath(db.path, c.logKey)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Materialize drains s into a new collection (paper §4.1 Materialize).
func (db *DB) Materialize(name string, schema Schema, s Stream) (*Collection, error) {
	c, err := db.CreateCollection(name, schema)
	if err != nil {
		return nil, err
	}
	if err := drain(s, c.AppendBatch); err != nil {
		return nil, err
	}
	return c, nil
}

// commitChunk is the rows per AppendBatch of Materialize and resync.
const commitChunk = 64

// drain commits s's rows through appendBatch, commitChunk at a time.
func drain(s Stream, appendBatch func([]*Patch) (int, error)) error {
	ps, err := Collect(s)
	for chunk := range slices.Chunk(ps, commitChunk) {
		if err == nil {
			_, err = appendBatch(chunk)
		}
	}
	return err
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

// Collection is a named materialized set of patches persisted in one
// row log (see rowlog.go), whose rows it holds in memory once loaded.
//
// Patch ids are issued at commit, under the collection's lock, so one
// row order holds everywhere: ascending id, in the row cache, the log,
// the columns and after a reopen. Concurrent readers and writers are
// safe: Current returns a Snapshot, the rows committed so far and the
// version they reflect, and no later append changes what it holds.
type Collection struct {
	db     *DB
	name   string
	schema Schema
	codec  *rowCodec // stores every row of the schema, and loads it

	// mu guards the commit: the log append, count, version and the row
	// cache, which is nil until loaded (see load). The log is open once
	// the cache is loaded; logKey names it. It also guards the declared
	// indexes (indexDecl names), saved with the descriptor.
	mu      sync.Mutex
	logKey  uint64
	log     rowLog
	count   int
	version uint64
	cache   []*Patch
	indexes []string

	// colMu guards the columnar projection of the current snapshot
	// (built lazily by Columns, invalidated by version movement).
	colMu    sync.Mutex
	colStore *ColumnStore

	// vecMu guards the cached vector indexes, keyed by field (built
	// lazily by Snapshot.VectorIndex, maintained like colStore).
	vecMu  sync.Mutex
	vecIdx map[string]*VectorIndex

	// treeStats caches the tree statistics: treeStatKey -> treeStat,
	// each written once (see Snapshot.treeStat).
	treeStats sync.Map
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

// ErrIDOrder reports an append whose patch id is not above the last id
// its collection holds: committing it would break the id order of rows.
var ErrIDOrder = errors.New("core: patch id out of order")

// ErrInvalidPatch reports an appended row its collection's schema
// refuses: a bad row, not a storage fault. Nothing of its batch commits.
var ErrInvalidPatch = errors.New("core: invalid patch")

// Append is AppendBatch of the one patch p.
func (c *Collection) Append(p *Patch) error {
	_, err := c.AppendBatch([]*Patch{p})
	return err
}

// AppendBatch seals, validates, ids and persists ps as one commit, one
// version, and returns how many rows committed. A patch without an id
// gets the next one inside the commit; the ids must ascend above the
// collection's last, or the batch is refused with ErrIDOrder.
func (c *Collection) AppendBatch(ps []*Patch) (int, error) {
	rows, err := c.prepare(ps)
	if err != nil {
		return 0, err
	}
	return c.commit(rows)
}

// prepRow is a patch prepare sealed and validated, and its stored form.
type prepRow struct {
	p   *Patch
	raw []byte
}

// prepare seals each builder of ps in the collection's layout, then
// validates and encodes it (the stored bytes do not hold the id). A row
// that fails is ErrInvalidPatch naming its index, and is left a builder
// if it was one. A sealed patch may be a committed row readers share.
func (c *Collection) prepare(ps []*Patch) ([]prepRow, error) {
	rows := make([]prepRow, len(ps))
	for i, p := range ps {
		meta, built := p.Meta, !p.sealed()
		if built {
			var arr [16]Pair
			s := Sealer{codec: c.codec}
			s.Seal(p, p.entries(arr[:0]))
		}
		err := c.schema.ValidatePatch(p)
		if err == nil {
			rows[i].raw, err = c.codec.encode(p)
		}
		if err != nil {
			if built {
				p.Meta, p.codec, p.decl, p.pairs = meta, nil, nil, nil
			}
			return nil, fmt.Errorf("%w: collection %q, patch %d: %w", ErrInvalidPatch, c.name, i, err)
		}
		rows[i].p = p
	}
	return rows, nil
}

// commit appends prepared rows under one hold of c.mu: one load (for
// the last id), ids, one order check, the log appends and one version.
// A log append that fails commits the rows before it.
func (c *Collection) commit(rows []prepRow) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.load(); err != nil {
		return 0, err
	}
	last := c.log.last // the cache's last id
	for _, r := range rows {
		if r.p.ID == 0 {
			r.p.ID = c.db.NewPatchID()
		}
		if r.p.ID <= last {
			return 0, fmt.Errorf("%w: %d after %d in %q", ErrIDOrder, r.p.ID, last, c.name)
		}
		last = r.p.ID
	}
	var err error
	for _, r := range rows {
		if err = c.log.append(r.p.ID, r.raw); err != nil {
			break
		}
		c.cache = append(c.cache, r.p)
	}
	n := len(c.cache) - c.count
	if n > 0 {
		c.count, c.version = len(c.cache), c.db.nextVersion()
	}
	return n, err
}

// Get fetches one patch by id from the current snapshot (see
// Snapshot.Get).
func (c *Collection) Get(id PatchID) (*Patch, error) {
	s, err := c.Current()
	if err != nil {
		return nil, err
	}
	return s.Get(id)
}

// Patches returns all patches, loading and caching them on first use.
func (c *Collection) Patches() ([]*Patch, error) {
	s, err := c.Current()
	return s.rows, err
}

// Current returns the collection's snapshot as of its last commit,
// loading the row cache on first use.
func (c *Collection) Current() (Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.load(); err != nil {
		return Snapshot{}, err
	}
	return Snapshot{c, c.cache, c.version}, nil
}

// Snapshot is Current as a bare row slice and version, for the
// benchmark harness.
func (c *Collection) Snapshot() ([]*Patch, uint64, error) {
	s, err := c.Current()
	return s.rows, s.version, err
}

// Snapshot is a stable view of a collection: the rows committed as of
// one version, in id order. Concurrent appends grow the row cache past
// a snapshot's rows but never change them, so many queries can share
// one snapshot while writers proceed, and a (name, version) pair names
// exactly the rows it holds. The zero Snapshot is empty and older than
// any real version.
type Snapshot struct {
	col     *Collection
	rows    []*Patch
	version uint64
}

// Len returns the snapshot's row count.
func (s Snapshot) Len() int { return len(s.rows) }

// Row returns row i.
func (s Snapshot) Row(i int) *Patch { return s.rows[i] }

// Patches returns the rows, which the caller must not modify.
func (s Snapshot) Patches() []*Patch { return s.rows }

// Materialize resolves selected rows to their patches, in sel's order.
func (s Snapshot) Materialize(sel []int32) []*Patch {
	out := make([]*Patch, len(sel))
	for i, r := range sel {
		out[i] = s.rows[r]
	}
	return out
}

// Get fetches one patch by id: a binary search of the id-ordered rows.
// A miss is ErrNotFound itself.
func (s Snapshot) Get(id PatchID) (*Patch, error) {
	i, ok := slices.BinarySearchFunc(s.rows, id, func(p *Patch, id PatchID) int { return cmp.Compare(p.ID, id) })
	if !ok {
		return nil, ErrNotFound
	}
	return s.rows[i], nil
}

// load fills the row cache from the row log, in id order, and opens the
// log for appends, unless the cache is loaded; an empty collection's
// cache is loaded and empty. Callers hold c.mu: the one load path, which
// appends wait out. A damaged block fails the load with errCorrupt. The
// rows take their declared values from slot arrays of loadBatch rows
// each, and the decoder copies what they hold out of the read buffers.
func (c *Collection) load() error {
	if c.cache != nil {
		return nil
	}
	f, err := os.OpenFile(rowLogPath(c.db.path, c.logKey), os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	out := make([]*Patch, 0, c.count)
	d := patchDecoder{codec: c.codec, batch: loadBatch}
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, st.Size()), 64<<10)
	err = readRowLog(r, st.Size(), func(id PatchID, row []byte) error {
		p, err := d.decode(id, row)
		if err != nil {
			return err
		}
		out = append(out, p)
		return nil
	})
	if err != nil {
		f.Close()
		return fmt.Errorf("collection %q: %w", c.name, err)
	}
	c.log = rowLog{f: f, size: st.Size()}
	if n := len(out); n > 0 {
		c.log.last = out[n-1].ID
	}
	c.cache, c.count = out, len(out)
	return nil
}

// loadBatch is how many loaded rows share one slot array.
const loadBatch = 64

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
	snap, err := c.Current()
	if err != nil {
		return nil, info, err
	}
	cs, use, err := refreshCached(&c.colMu,
		func() *ColumnStore { return c.colStore },
		func(cs *ColumnStore) { c.colStore = cs },
		snap,
		func(prefix *ColumnStore) (*ColumnStore, Refresh, error) {
			if prefix == nil {
				return newColumnStore(snap, c.db.SegmentCache()), RefreshRebuild, nil
			}
			next, st := prefix.Extend(snap)
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

// Refresh is the outcome of serving an accelerator (column store or
// vector index) current as of one snapshot: the three arms of the
// certify → extend → rebuild lifecycle.
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

// versioned is what a collection's accelerator cache slot holds: an
// immutable structure derived from one snapshot, which covers returns.
// A nil receiver covers the zero Snapshot — an empty slot, older than
// any real version.
type versioned interface {
	covers() Snapshot
}

// refreshCached serves the accelerator cached in one slot — read and
// written through get/set, both called under mu — current exactly as of
// the caller's snapshot: the protocol the column store and the vector
// indexes share. The cached value is returned while its version
// matches. Otherwise derive makes the new one: from the cached value
// when snap holds at least the rows it covers (the row cache only
// grows, so snap extends them), and from nil when the slot is empty or
// snap is shorter — a reader behind the slot. derive runs with mu free
// — a full build is O(snapshot), and holding the lock would stall every
// cache-hit reader of the collection — so racing callers may duplicate
// work; the install keeps one canonical value per version, adopting a
// raced winner's, and only moves the slot forward: a reader behind gets
// a private value without evicting the newer one.
func refreshCached[T versioned](mu *sync.Mutex, get func() T, set func(T), snap Snapshot,
	derive func(prefix T) (T, Refresh, error)) (T, Refresh, error) {
	mu.Lock()
	old := get()
	mu.Unlock()
	at := old.covers()
	if at.version == snap.version {
		return old, RefreshHit, nil
	}
	var prefix T
	if at.version != 0 && at.Len() <= snap.Len() {
		prefix = old
	}
	next, use, err := derive(prefix)
	if err != nil {
		return next, use, err
	}
	mu.Lock()
	defer mu.Unlock()
	cur := get()
	switch curVer := cur.covers().version; {
	case curVer == snap.version:
		next = cur
	case curVer < snap.version:
		set(next)
	}
	return next, use, nil
}
