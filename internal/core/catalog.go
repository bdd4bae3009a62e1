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
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/kv"
)

// DB is a DeepLens database: a catalog file (see catalogfile.go), one
// row log beside it per materialized patch collection (see rowlog.go),
// and the execution device query operators run on. Everything else a
// query uses — columns, their segments' sort orders (the sorted index),
// vector indexes — is built in memory from the rows.
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
// Refresh), the segment orders index probes sorted, and the
// distances kNN probes evaluated.
type RefreshStats struct {
	ColumnExtends      int64 // column stores extended by the appended rows
	ColumnReusedBlocks int64 // sealed blocks those extensions carried over,
	ColumnTotalBlocks  int64 // of the blocks they hold (the rest re-projected tails)
	VectorExtends      int64 // vector indexes extended by the appended rows
	VectorRebuilds     int64 // vector indexes built in full
	ScalarSorted       int64 // sealed column segments sorted for index probes
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
	db.resume()
	return db, nil
}

// resume takes each collection's row count from its row log and lifts
// the id counter past the log's last id: a log takes blocks between two
// flushes, which the catalog does not count. A log the walk cannot read
// to its end keeps the catalog's count, and its load fails.
func (db *DB) resume() {
	for _, c := range db.cols {
		rows, last, err := scanRowLog(rowLogPath(db.path, c.logKey))
		db.liftNextID(uint64(last))
		if err == nil {
			c.count = rows
		}
	}
}

// liftNextID raises the id counter to at least id, so every id it
// draws afterwards is above id.
func (db *DB) liftNextID(id uint64) {
	for cur := db.nextID.Load(); id > cur && !db.nextID.CompareAndSwap(cur, id); cur = db.nextID.Load() {
	}
}

// install opens cat's collections, unloaded, and resumes its counters.
// The version counter resumes past every version and log key a
// descriptor names, so a new row log never takes a live log's key.
// The next Flush saves an old catalog's index declarations in the
// current form.
func (db *DB) install(cat catalog) {
	db.nextID.Store(cat.NextID)
	db.nextVer.Store(cat.NextVer)
	for _, d := range cat.Cols {
		db.nextVer.Store(max(db.nextVer.Load(), d.Version, d.Log))
	}
	for _, d := range cat.Cols {
		c := &Collection{db: db, name: d.Name, schema: d.Schema, codec: newRowCodec(d.Schema), logKey: d.Log, count: d.Count, version: d.Version}
		// A declaration saved before the one sorted kind names its
		// kind after the field ("f/hash", "f/btree"): both declare f.
		for _, decl := range d.Indexes {
			c.declareIndex(strings.TrimSuffix(strings.TrimSuffix(decl, "/hash"), "/btree"))
		}
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
	// Indexes are the fields with a declared sorted index (see BuildIndex).
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
	codec := newRowCodec(schema)
	c := &Collection{db: db, name: name, schema: schema, codec: codec, logKey: v, version: v,
		log: log, tab: newRowTable(codec)}
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
// row log (see rowlog.go), whose rows it holds in memory once loaded, in
// a row table (see rowtable.go).
//
// Patch ids are issued at commit, under the collection's lock, so one
// row order holds everywhere: ascending id, in the row table, the log,
// the columns and after a reopen. Concurrent readers and writers are
// safe: Current returns a Snapshot, the rows committed so far and the
// version they reflect, and no later append changes what it holds.
type Collection struct {
	db     *DB
	name   string
	schema Schema
	codec  *rowCodec // stores every row of the schema, and loads it

	// mu guards the commit: the log append, count, version and the row
	// table's published header, which is nil until loaded (see load).
	// The log is open once the table is loaded; logKey names it. It also
	// guards the declared indexes (BuildIndex's fields), saved with the
	// descriptor.
	mu      sync.Mutex
	logKey  uint64
	log     rowLog
	count   int
	version uint64
	tab     *RowTable
	indexes []string

	// colMu guards the columnar projection of the current snapshot
	// (built lazily by Columns, invalidated by version movement).
	colMu    sync.Mutex
	colStore *ColumnStore

	// vecMu guards the cached vector indexes, keyed by field (built
	// lazily by Snapshot.VectorIndex, maintained like colStore).
	vecMu  sync.Mutex
	vecIdx map[string]*VectorIndex

	// enc is the row list, buffer and slots the last batch was prepared
	// into, kept for the next (see prepare); nil while a batch holds it.
	enc atomic.Pointer[prepBatch]

	// sealer is the Sealer the last append through one gave back, kept
	// with its slot array for the next (see ShardedCollection.Sealer).
	sealer atomic.Pointer[Sealer]

	// verified counts the leading rows a repair found equal to the
	// primary's (on a replica; see resyncCollection).
	verified atomic.Int64

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
	b, err := c.prepare(ps)
	if err != nil {
		return 0, err
	}
	_, n, err := c.commit(b.rows, -1)
	c.releaseEnc(b)
	return n, err
}

// prepRow is a patch prepare sealed and validated, and its stored form.
type prepRow struct {
	p   *Patch
	raw []byte
}

// prepBatch is a batch prepare sealed: its rows, whose stored forms are
// encoded back to back into buf, and the slots the builders among them
// were sealed into, until their commit re-points them at a row table.
type prepBatch struct {
	rows  []prepRow
	buf   []byte
	slots []slot
}

// maxKeptEnc is the largest encode buffer a collection keeps.
const maxKeptEnc = 1 << 20

// releaseEnc gives a prepared batch back to the collection that
// prepared it: its row list, the raw bytes of every row and its slots
// are dead afterwards. The row log copies each stored row into its tail
// block, and a commit re-points each builder it committed at its row
// table, so a batch is free again once its last commit returns; a
// builder that did not commit takes a copy of its slots. Of two batches
// prepared at once, one is kept.
func (c *Collection) releaseEnc(b *prepBatch) {
	for _, r := range b.rows {
		if p := r.p; p != nil && len(b.slots) > 0 && p.decl != nil && inSlots(p.decl, b.slots) {
			decl := slices.Clone(p.declared())
			p.decl = &decl[0]
		}
	}
	if cap(b.buf) <= maxKeptEnc && cap(b.rows) <= maxKeptEnc/int(unsafe.Sizeof(prepRow{})) && cap(b.slots) <= maxKeptSlots {
		clear(b.rows) // drop the patches
		clear(b.slots)
		b.rows, b.buf, b.slots = b.rows[:0], b.buf[:0], b.slots[:0]
		c.enc.CompareAndSwap(nil, b)
	}
}

// inSlots reports whether s is one of arr's slots.
func inSlots(s *slot, arr []slot) bool {
	p, lo := uintptr(unsafe.Pointer(s)), uintptr(unsafe.Pointer(unsafe.SliceData(arr)))
	return p >= lo && p < lo+uintptr(len(arr))*unsafe.Sizeof(slot{})
}

// prepare seals each builder of ps in the collection's layout, then
// validates and encodes it (the stored bytes do not hold the id). The
// rows encode back to back into one buffer, listed in one row list, and
// the builders seal into one slot array, all three the ones the
// collection kept from its last batch when no other batch holds them;
// the caller hands the batch to releaseEnc after its last commit of it.
// They are kept by the collection rather than a sync.Pool, which drops
// its contents at garbage collections and makes the next batch grow
// them again. A row that fails is ErrInvalidPatch naming its index, and
// is left a builder if it was one. A sealed patch may be a committed
// row readers share.
func (c *Collection) prepare(ps []*Patch) (*prepBatch, error) {
	pb := c.enc.Swap(nil)
	if pb == nil {
		pb = new(prepBatch)
	}
	pb.rows = slices.Grow(pb.rows, len(ps))[:len(ps)]
	rows, b := pb.rows, pb.buf
	seal, sized := Sealer{codec: c.codec, arr: pb.slots}, false
	for i, p := range ps {
		meta, built := p.Meta, !p.sealed()
		if built {
			if !sized {
				seal.reset(len(ps))
				pb.slots, sized = seal.arr, true
			}
			var arr [16]Pair
			seal.Seal(p, p.entries(arr[:0]))
		}
		err := c.schema.ValidatePatch(p)
		if err == nil {
			start := len(b)
			b, err = c.codec.appendEncoded(b, p)
			rows[i].raw = b[start:] // its length; sliced from the final buffer below
		}
		if err != nil {
			if built {
				p.Meta, p.codec, p.decl, p.pairs = meta, nil, nil, nil
			}
			pb.buf = b
			c.releaseEnc(pb)
			return nil, fmt.Errorf("%w: collection %q, patch %d: %w", ErrInvalidPatch, c.name, i, err)
		}
		rows[i].p = p
	}
	off := 0
	for i := range rows {
		n := len(rows[i].raw)
		rows[i].raw = b[off : off+n : off+n]
		off += n
	}
	pb.buf = b
	return pb, nil
}

// errBehind reports a replica commit refused because the replica does
// not hold the rows its primary committed the part after.
var errBehind = errors.New("core: replica behind its primary")

// commit appends prepared rows under one hold of c.mu: one load (for
// the last id), ids, one order check, the log and table appends, and
// one version. Each row's patch sealed in the collection's layout is
// re-pointed at its table row (see tableWriter.commit). It returns the
// row count it committed after and how many rows it committed. With at
// >= 0 it commits only after exactly at rows, and is errBehind
// otherwise. A log append that fails commits the rows before it.
func (c *Collection) commit(rows []prepRow, at int) (from, n int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.load(); err != nil {
		return 0, 0, err
	}
	if from = c.count; at >= 0 && at != from {
		return from, 0, errBehind
	}
	last := c.log.last // the table's last id
	for _, r := range rows {
		if r.p.ID == 0 {
			r.p.ID = c.db.NewPatchID()
		}
		if r.p.ID <= last {
			return from, 0, fmt.Errorf("%w: %d after %d in %q", ErrIDOrder, r.p.ID, last, c.name)
		}
		last = r.p.ID
	}
	w := tableWriter{t: c.tab, n: from}
	for _, r := range rows {
		if err = c.log.append(r.p.ID, r.raw); err != nil {
			break
		}
		w.commit(r.p)
	}
	if n = w.n - from; n > 0 {
		c.tab, c.count, c.version = w.t, w.n, c.db.nextVersion()
	}
	return from, n, err
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

// Patches returns all patches of the current snapshot, loading the
// collection on first use (see Snapshot.Patches).
func (c *Collection) Patches() ([]*Patch, error) {
	s, err := c.Current()
	return s.Patches(), err
}

// Current returns the collection's snapshot as of its last commit,
// loading the row table on first use.
func (c *Collection) Current() (Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.load(); err != nil {
		return Snapshot{}, err
	}
	return Snapshot{c, c.tab, c.count, c.version}, nil
}

// Snapshot is Current as a row slice and version. It materializes
// every row (see Snapshot.Patches). The benchmark harness's traced
// probes are its only caller; ROADMAP item 25 moves them to Current
// and deletes it.
func (c *Collection) Snapshot() ([]*Patch, uint64, error) {
	s, err := c.Current()
	return s.Patches(), s.version, err
}

// Snapshot is a stable view of a collection: the rows committed as of
// one version, in id order, the first Len rows of its row table.
// Concurrent appends grow the table past a snapshot's rows but never
// change them, so many queries can share one snapshot while writers
// proceed, and a (name, version) pair names exactly the rows it holds.
// The zero Snapshot is empty and older than any real version.
type Snapshot struct {
	col     *Collection
	tab     *RowTable
	n       int
	version uint64
}

// Len returns the snapshot's row count.
func (s Snapshot) Len() int { return s.n }

// Table returns the row table the snapshot's rows are the first Len of.
func (s Snapshot) Table() *RowTable { return s.tab }

// Row returns row i as a new committed row (see RowTable.View).
func (s Snapshot) Row(i int) *Patch {
	s.check(i)
	return s.tab.Row(i)
}

// check panics unless i is one of the snapshot's rows.
func (s Snapshot) check(i int) {
	if uint(i) >= uint(s.n) {
		panic(fmt.Sprintf("core: row %d of a %d-row snapshot", i, s.n))
	}
}

// Patches returns every row as a new committed row, in one block.
func (s Snapshot) Patches() []*Patch {
	out := make([]*Patch, s.n)
	block := make([]Patch, s.n)
	for i := range block {
		s.tab.View(i, &block[i])
		out[i] = &block[i]
	}
	return out
}

// Materialize returns the selected rows as new committed rows, in sel's
// order, in one block.
func (s Snapshot) Materialize(sel []int32) []*Patch {
	out := make([]*Patch, len(sel))
	block := make([]Patch, len(sel))
	s.ViewRows(sel, block)
	for i := range block {
		out[i] = &block[i]
	}
	return out
}

// ViewRows fills ps[i] with row sel[i] (see RowTable.View); ps is as
// long as sel.
func (s Snapshot) ViewRows(sel []int32, ps []Patch) {
	for i, r := range sel {
		s.check(int(r))
		s.tab.View(int(r), &ps[i])
	}
}

// Find returns the position of the row with the given id: a binary
// search of the id-ordered rows.
func (s Snapshot) Find(id PatchID) (int, bool) {
	if s.n == 0 {
		return 0, false
	}
	return s.tab.search(s.n, id)
}

// Get fetches one patch by id as a new committed row (see Find). A miss
// is ErrNotFound itself.
func (s Snapshot) Get(id PatchID) (*Patch, error) {
	i, ok := s.Find(id)
	if !ok {
		return nil, ErrNotFound
	}
	return s.tab.Row(i), nil
}

// load fills the row table from the row log, in id order, and opens
// the log for appends, unless the table is loaded; an empty
// collection's table is loaded and empty. Callers hold c.mu: the one
// load path, which appends wait out. A damaged block fails the load
// with errCorrupt. The decoder copies what the rows hold out of the
// read buffers.
func (c *Collection) load() error {
	if c.tab != nil {
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
	w := tableWriter{t: newRowTable(c.codec), owned: true}
	d := patchDecoder{codec: c.codec}
	var p Patch
	decl := make([]slot, len(c.codec.fields))
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, st.Size()), 64<<10)
	err = readRowLog(r, st.Size(), func(id PatchID, row []byte) error {
		if err := d.read(id, row, &p, decl); err != nil {
			return err
		}
		w.put(&p, decl, p.pairs)
		return nil
	})
	if err != nil {
		f.Close()
		return fmt.Errorf("collection %q: %w", c.name, err)
	}
	c.log = rowLog{f: f, size: st.Size()}
	if w.n > 0 {
		c.log.last = w.t.ID(w.n - 1)
	}
	c.tab, c.count = w.t, w.n
	return nil
}

// Columns returns the columnar projection of the collection's current
// snapshot, building it lazily and upgrading whenever the version has
// moved — the same version-keyed invalidation the serving layer's result
// cache uses, so appends can never serve a stale column. The row table
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
// when snap holds at least the rows it covers (the row table only
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
