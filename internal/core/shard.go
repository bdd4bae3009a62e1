package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/fault"
)

// This file implements horizontal partitioning: a Sharded database fans
// the storage entry points (CreateCollection, Append, Materialize) out
// across N independent DB instances — one kv store and directory each —
// behind a combined catalog view. Patches route to shards by a
// deterministic hash of their PatchID, so placement is stable across
// restarts and reshard-free reopens; the serving layer scatters query
// fragments across the shards and merges at the gather stage.
//
// Each shard may additionally carry R replicas: independent DB instances
// fed the identical append sequence, so any in-sync replica serves the
// same bytes as the primary. Writes are primary-authoritative — the
// primary (replica 0) must accept the append or the whole write fails;
// a secondary that fails is demoted from the read set (out of sync)
// while the append still succeeds. Reads therefore never observe a
// missed write, and the serving layer is free to hedge a slow fragment
// to any in-sync replica.
//
// With one shard and one replica the layer is a pass-through: IDs,
// versions and per-collection contents are byte-identical to a plain DB
// fed the same operations, which is how the service serves one
// (WrapSharded).

// shardMetaFile persists the shard topology at the root of a sharded
// directory so a reopen with a different -shards or -replicas value
// fails loudly instead of silently splitting collections across
// disjoint layouts.
const shardMetaFile = "SHARDS.json"

type shardMeta struct {
	Shards int `json:"shards"`
	// Replicas is omitted at R=1 so single-replica directories keep the
	// exact pre-replication meta bytes; absent means 1 on read.
	Replicas int `json:"replicas,omitempty"`
}

// ErrShardMismatch reports a sharded directory reopened with a different
// shard or replica count than it was created with.
var ErrShardMismatch = errors.New("core: shard count mismatch")

// Sharded is a horizontally partitioned database: N independent DB
// instances (shard subdirectories) behind one combined catalog, each
// optionally backed by R replicas. All writes must go through the
// Sharded layer (or a ShardedCollection), which allocates globally
// unique patch ids and routes each patch to every replica of its home
// shard.
type Sharded struct {
	dir    string
	shards []*DB   // primaries, shards[i] == reps[i][0]
	reps   [][]*DB // [shard][replica]
	nrep   int

	// insync[shard][replica]: replica serves reads. The primary
	// (replica 0) is always in sync; a secondary that misses an append
	// is demoted until a re-sync repairs it (ResyncReplica).
	insync  [][]atomic.Bool
	repErrs atomic.Int64 // secondary append failures observed

	// appendMu[shard] serializes routed appends per shard, so every
	// replica commits the identical patch sequence in the identical
	// order — the prefix property replica re-sync verifies against —
	// and gives the repair engine's final catch-up round a point of
	// mutual exclusion with concurrent writers. A batch takes its ids
	// and its shards' appendMu under idMu, which it releases once it
	// holds them: each shard's batches lock it in id order.
	appendMu []sync.Mutex
	idMu     sync.Mutex

	// resyncing[shard][replica]: a repair of this replica is in flight
	// (at most one at a time; /readyz reports these as not-ready).
	resyncing  [][]atomic.Bool
	resyncs    atomic.Int64 // completed repairs that re-promoted a replica
	resyncRows atomic.Int64 // patches streamed to replicas by repairs

	// inj is an atomic pointer because SetFaults may disarm rules at
	// runtime (chaos tests healing a fault) while the anti-entropy loop
	// and append path are concurrently reading it.
	inj atomic.Pointer[fault.Injector]

	mu   sync.RWMutex
	cols map[string]*ShardedCollection
}

// OpenSharded opens (or creates) a sharded database of n shards rooted
// at dir with one replica per shard — the pre-replication layout.
func OpenSharded(dir string, n int, dev exec.Device) (*Sharded, error) {
	return OpenShardedReplicas(dir, n, 1, dev)
}

// OpenShardedReplicas opens (or creates) a sharded database of n shards
// with r replicas each, rooted at dir. The primary of shard i is an
// independent DB at dir/shard-NNN/deeplens.db on the given device;
// replica j > 0 lives beside it at dir/shard-NNN-rJ/. n or r < 1 is
// treated as 1. Reopening an existing sharded directory with a
// different n or r fails with ErrShardMismatch: patches were hash-placed
// for the original count, and a different modulus would scatter every
// collection across the wrong shards.
func OpenShardedReplicas(dir string, n, r int, dev exec.Device) (*Sharded, error) {
	if n < 1 {
		n = 1
	}
	if r < 1 {
		r = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	metaPath := filepath.Join(dir, shardMetaFile)
	haveMeta := false
	raw, readErr := os.ReadFile(metaPath)
	switch {
	case readErr == nil:
		var m shardMeta
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("core: corrupt %s: %w", shardMetaFile, err)
		}
		if m.Replicas == 0 {
			m.Replicas = 1
		}
		if m.Shards != n || m.Replicas != r {
			return nil, fmt.Errorf("%w: directory %s holds %d shards x %d replicas, requested %dx%d (reshard by re-ingesting)",
				ErrShardMismatch, dir, m.Shards, m.Replicas, n, r)
		}
		haveMeta = true
	case errors.Is(readErr, fs.ErrNotExist):
		// Fresh directory: the meta file is written after every shard opens.
	default:
		// An unreadable meta file must not be mistaken for a fresh
		// directory: overwriting it would re-hash existing data under the
		// wrong modulus.
		return nil, fmt.Errorf("core: read %s: %w", shardMetaFile, readErr)
	}
	s := newSharded(dir, n, r)
	for i := 0; i < n; i++ {
		for j := 0; j < r; j++ {
			sub := filepath.Join(dir, replicaDirName(i, j))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				s.closeOpened()
				return nil, err
			}
			db, err := Open(filepath.Join(sub, "deeplens.db"), dev)
			if err != nil {
				s.closeOpened()
				return nil, fmt.Errorf("core: open shard %d replica %d: %w", i, j, err)
			}
			s.reps[i][j] = db
		}
		s.shards[i] = s.reps[i][0]
	}
	// Persist the topology only once every shard opened: a failed first
	// open must not strand a meta file that blocks a retry at a
	// different count.
	if !haveMeta {
		m := shardMeta{Shards: n}
		if r > 1 {
			m.Replicas = r
		}
		raw, _ := json.Marshal(m)
		if err := os.WriteFile(metaPath, append(raw, '\n'), 0o644); err != nil {
			s.closeOpened()
			return nil, err
		}
	}
	return s, nil
}

// replicaDirName is the on-disk directory of (shard, replica): the
// primary keeps the historical shard-NNN name, replicas sit beside it.
func replicaDirName(shard, replica int) string {
	if replica == 0 {
		return fmt.Sprintf("shard-%03d", shard)
	}
	return fmt.Sprintf("shard-%03d-r%d", shard, replica)
}

func newSharded(dir string, n, r int) *Sharded {
	s := &Sharded{
		dir:       dir,
		shards:    make([]*DB, n),
		reps:      make([][]*DB, n),
		nrep:      r,
		insync:    make([][]atomic.Bool, n),
		appendMu:  make([]sync.Mutex, n),
		resyncing: make([][]atomic.Bool, n),
		cols:      make(map[string]*ShardedCollection),
	}
	for i := range s.reps {
		s.reps[i] = make([]*DB, r)
		s.insync[i] = make([]atomic.Bool, r)
		s.resyncing[i] = make([]atomic.Bool, r)
		for j := range s.insync[i] {
			s.insync[i][j].Store(true)
		}
	}
	return s
}

// WrapSharded presents already-open DB instances as one sharded database
// with a single replica per shard (tests and embedders that manage shard
// storage themselves). Closing the wrapper closes the shards.
func WrapSharded(shards ...*DB) *Sharded {
	s := newSharded("", len(shards), 1)
	for i, db := range shards {
		s.shards[i] = db
		s.reps[i][0] = db
	}
	return s
}

// SetFaults arms the append- and resync-path failpoints (nil disables).
// Safe to call while appends or repairs are in flight: in-progress
// operations finish under whichever injector they started with.
func (s *Sharded) SetFaults(inj *fault.Injector) { s.inj.Store(inj) }

// injector returns the currently armed injector (nil when disabled).
func (s *Sharded) injector() *fault.Injector { return s.inj.Load() }

// SetSegmentCache points every replica DB at one shared column-segment
// cache, so a single byte budget governs the resident spilled-segment
// set across all shards and replicas (see DB.SetSegmentCache).
func (s *Sharded) SetSegmentCache(sc *SegmentCache) {
	for _, rs := range s.reps {
		for _, db := range rs {
			if db != nil {
				db.SetSegmentCache(sc)
			}
		}
	}
}

func (s *Sharded) closeOpened() {
	for _, rs := range s.reps {
		for _, db := range rs {
			if db != nil {
				db.Close()
			}
		}
	}
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Replicas returns the per-shard replica count.
func (s *Sharded) Replicas() int { return s.nrep }

// Shard returns shard i's primary DB (shard-local index builds and
// read-only introspection; writes must go through the Sharded layer).
func (s *Sharded) Shard(i int) *DB { return s.shards[i] }

// ReplicaDB returns replica j of shard i (j=0 is the primary).
func (s *Sharded) ReplicaDB(i, j int) *DB { return s.reps[i][j] }

// InSyncReplicas returns the replica indices of shard i currently
// serving reads, in replica order. The primary (0) is always present.
func (s *Sharded) InSyncReplicas(i int) []int {
	rs := make([]int, 0, s.nrep)
	for j := 0; j < s.nrep; j++ {
		if s.insync[i][j].Load() {
			rs = append(rs, j)
		}
	}
	return rs
}

// ReplicaAppendErrors returns how many secondary-replica append failures
// have been absorbed (each demotes the failing replica).
func (s *Sharded) ReplicaAppendErrors() int64 { return s.repErrs.Load() }

// Demote removes a secondary replica from the read set (ops/test hook;
// the append path demotes automatically on a failed secondary write).
// It reports whether the replica transitioned from in-sync. The primary
// (replica 0) cannot be demoted.
func (s *Sharded) Demote(shard, replica int) bool {
	if shard < 0 || shard >= len(s.shards) || replica <= 0 || replica >= s.nrep {
		return false
	}
	return s.insync[shard][replica].CompareAndSwap(true, false)
}

// ReplicaLag identifies one replica needing (or undergoing) repair.
type ReplicaLag struct {
	Shard   int `json:"shard"`
	Replica int `json:"replica"`
	// Resyncing reports a repair currently in flight for this replica.
	Resyncing bool `json:"resyncing,omitempty"`
}

// OutOfSyncReplicas lists every replica currently demoted from the read
// set, in (shard, replica) order — the anti-entropy loop's work list and
// the /readyz detail. Empty means every replica serves reads.
func (s *Sharded) OutOfSyncReplicas() []ReplicaLag {
	var lags []ReplicaLag
	for i := range s.insync {
		for j := 1; j < s.nrep; j++ {
			if !s.insync[i][j].Load() {
				lags = append(lags, ReplicaLag{
					Shard:     i,
					Replica:   j,
					Resyncing: s.resyncing[i][j].Load(),
				})
			}
		}
	}
	return lags
}

// ResyncStats returns how many repairs have re-promoted a replica and
// how many patches those repairs streamed in total.
func (s *Sharded) ResyncStats() (resyncs, rows int64) {
	return s.resyncs.Load(), s.resyncRows.Load()
}

// shardHash is a splitmix64 finalizer: sequential patch ids spread
// uniformly across shards, and placement is a pure function of the id.
func shardHash(id PatchID) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardFor returns the home shard of a patch id — the deterministic
// partitioner every write and point lookup routes through.
func (s *Sharded) ShardFor(id PatchID) int {
	return int(shardHash(id) % uint64(len(s.shards)))
}

// NewPatchID allocates a database-wide unique patch id. Shard 0's
// primary is the designated allocator, so ids never collide across
// shards and a one-shard database allocates exactly the sequence an
// unsharded DB would.
func (s *Sharded) NewPatchID() PatchID { return s.shards[0].NewPatchID() }

// Close flushes and closes every replica of every shard, returning the
// first error.
func (s *Sharded) Close() error {
	var first error
	for _, rs := range s.reps {
		for _, db := range rs {
			if err := db.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Flush persists all dirty state on every replica of every shard.
func (s *Sharded) Flush() error {
	for i, rs := range s.reps {
		for j, db := range rs {
			if err := db.Flush(); err != nil {
				return fmt.Errorf("core: flush shard %d replica %d: %w", i, j, err)
			}
		}
	}
	return nil
}

// CreateCollection registers a new collection on every replica of every
// shard. On partial failure the already-created shard-local collections
// are dropped, so a collection either exists everywhere or nowhere.
func (s *Sharded) CreateCollection(name string, schema Schema) (*ShardedCollection, error) {
	cols := make([][]*Collection, len(s.reps))
	created := 0
	for i, rs := range s.reps {
		cols[i] = make([]*Collection, len(rs))
		for j, db := range rs {
			c, err := db.CreateCollection(name, schema)
			if err != nil {
				for _, prs := range s.reps[:i+1] {
					for _, pdb := range prs {
						if created == 0 {
							break
						}
						pdb.DropCollection(name)
						created--
					}
				}
				return nil, fmt.Errorf("core: create %q on shard %d replica %d: %w", name, i, j, err)
			}
			cols[i][j] = c
			created++
		}
	}
	sc := &ShardedCollection{s: s, name: name, schema: schema, cols: cols}
	s.mu.Lock()
	s.cols[name] = sc
	s.mu.Unlock()
	return sc, nil
}

// Collection opens an existing collection's combined view by name. A
// cached view is served only while shard 0's catalog still holds the
// handle it was built from: the owner of a wrapped DB (WrapSharded) may
// drop and re-create a collection directly on it, which this layer
// never hears about, and a view of the dropped handle must not outlive
// it.
func (s *Sharded) Collection(name string) (*ShardedCollection, error) {
	live, err := s.shards[0].Collection(name)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	sc, ok := s.cols[name]
	s.mu.RUnlock()
	if ok && sc.cols[0][0] == live {
		return sc, nil
	}
	cols := make([][]*Collection, len(s.reps))
	for i, rs := range s.reps {
		cols[i] = make([]*Collection, len(rs))
		for j, db := range rs {
			c, err := db.Collection(name)
			if err != nil {
				return nil, err
			}
			cols[i][j] = c
		}
	}
	// Racing openers build equivalent views; whichever lands last stays.
	sc = &ShardedCollection{s: s, name: name, schema: live.Schema(), cols: cols}
	s.mu.Lock()
	s.cols[name] = sc
	s.mu.Unlock()
	return sc, nil
}

// Collections lists collection names (the combined catalog; every shard
// holds the same set, shard 0's primary is authoritative).
func (s *Sharded) Collections() []string { return s.shards[0].Collections() }

// DropCollection removes the collection from every replica of every
// shard.
func (s *Sharded) DropCollection(name string) error {
	s.mu.Lock()
	delete(s.cols, name)
	s.mu.Unlock()
	var first error
	for i, rs := range s.reps {
		for j, db := range rs {
			if err := db.DropCollection(name); err != nil && first == nil {
				first = fmt.Errorf("core: drop %q on shard %d replica %d: %w", name, i, j, err)
			}
		}
	}
	return first
}

// Materialize drains a stream into a new sharded collection, routing
// every patch to its home shard (the sharded analog of DB.Materialize).
func (s *Sharded) Materialize(name string, schema Schema, in Stream) (*ShardedCollection, error) {
	sc, err := s.CreateCollection(name, schema)
	if err != nil {
		return nil, err
	}
	if err := drain(in, sc.AppendBatch); err != nil {
		return nil, err
	}
	return sc, nil
}

// GetPatch resolves a patch id on its home shard's primary, which
// probes that shard's collections (see DB.GetPatch).
func (s *Sharded) GetPatch(id PatchID) (*Patch, error) {
	return s.shards[s.ShardFor(id)].GetPatch(id)
}

// Backtrace follows a patch's lineage chain across shards (parents were
// routed by their own ids, so each hop resolves on its home shard).
func (s *Sharded) Backtrace(p *Patch) ([]*Patch, error) { return backtrace(p, s.GetPatch) }

// RefreshStats sums the accelerator-maintenance record over every
// replica DB: each replica maintains its own column stores and indexes
// for the fragments it answers (see DB.RefreshStats).
func (s *Sharded) RefreshStats() RefreshStats {
	var sum RefreshStats
	for _, reps := range s.reps {
		for _, db := range reps {
			db.addRefreshStats(&sum)
		}
	}
	return sum
}

// ShardInfo is one shard's storage snapshot (served by /stats).
type ShardInfo struct {
	Shard int `json:"shard"`
	// Rows is the total patch count across the shard's collections.
	Rows int `json:"rows"`
	// Versions is the shard's version-counter high-water mark: how many
	// writes this shard has absorbed since creation.
	Versions uint64 `json:"versions"`
	// Replicas is the shard's configured replica count.
	Replicas int `json:"replicas"`
	// OutOfSync lists replicas demoted from the read set after a missed
	// append (empty when all replicas serve reads).
	OutOfSync []int `json:"out_of_sync,omitempty"`
	// Resyncing lists replicas with a repair currently in flight (always
	// a subset of OutOfSync: promotion happens only after repair).
	Resyncing []int `json:"resyncing,omitempty"`
}

// ShardInfos snapshots per-shard row counts, version counters and
// replica health (rows and versions come from the primary).
func (s *Sharded) ShardInfos() []ShardInfo {
	infos := make([]ShardInfo, len(s.shards))
	names := s.Collections()
	for i, db := range s.shards {
		info := ShardInfo{Shard: i, Versions: db.nextVer.Load(), Replicas: s.nrep}
		for _, name := range names {
			if c, err := db.Collection(name); err == nil {
				info.Rows += c.Len()
			}
		}
		for j := 0; j < s.nrep; j++ {
			if !s.insync[i][j].Load() {
				info.OutOfSync = append(info.OutOfSync, j)
			}
			if s.resyncing[i][j].Load() {
				info.Resyncing = append(info.Resyncing, j)
			}
		}
		infos[i] = info
	}
	return infos
}

// ShardedCollection is the combined view of one collection's N
// shard-local partitions (each held by every replica of its shard).
type ShardedCollection struct {
	s      *Sharded
	name   string
	schema Schema
	cols   [][]*Collection // [shard][replica]
}

// Name returns the collection name.
func (c *ShardedCollection) Name() string { return c.name }

// Schema returns the collection's schema.
func (c *ShardedCollection) Schema() Schema { return c.schema }

// Sealer returns a Sealer of rows in the layout of the collection's
// first shard, with slots for rows rows. Every shard's layout is alike:
// another shard encodes such a row by reading its fields by name.
func (c *ShardedCollection) Sealer(rows int) *Sealer {
	return newSealer(c.schema, c.cols[0][0].codec, rows)
}

// Shards returns the partition count.
func (c *ShardedCollection) Shards() int { return len(c.cols) }

// Shard returns partition i's primary shard-local collection.
func (c *ShardedCollection) Shard(i int) *Collection { return c.cols[i][0] }

// Replica returns replica j of partition i (j=0 is the primary). The
// caller is responsible for consulting Sharded.InSyncReplicas before
// serving reads from a secondary.
func (c *ShardedCollection) Replica(i, j int) *Collection { return c.cols[i][j] }

// Len sums the partitions' patch counts (primaries).
func (c *ShardedCollection) Len() int {
	n := 0
	for _, rs := range c.cols {
		n += rs[0].Len()
	}
	return n
}

// Append is AppendBatch of the one patch p.
func (c *ShardedCollection) Append(p *Patch) error {
	_, err := c.AppendBatch([]*Patch{p})
	return err
}

// AppendBatch commits ps as one commit per home shard and returns how
// many rows committed. It prepares ps before anything commits, then,
// under idMu, ids them in batch order and locks the touched shards in
// ascending order. Each shard's part goes to every in-sync replica,
// primary first: a primary failure stops the batch, leaving the earlier
// shards' parts committed; a failed secondary is demoted, frozen at a
// prefix of the primary's rows that ResyncReplica streams the rest to.
func (c *ShardedCollection) AppendBatch(ps []*Patch) (int, error) {
	rows, err := c.cols[0][0].prepare(ps)
	if err != nil {
		return 0, err
	}
	s := c.s
	home := func(r prepRow) int { return s.ShardFor(r.p.ID) }
	s.idMu.Lock()
	for _, r := range rows {
		if r.p.ID == 0 {
			r.p.ID = s.NewPatchID()
		}
	}
	slices.SortStableFunc(rows, func(a, b prepRow) int { return home(a) - home(b) })
	for i, r := range rows {
		if i == 0 || home(r) != home(rows[i-1]) {
			s.appendMu[home(r)].Lock()
		}
	}
	s.idMu.Unlock()
	committed, inj := 0, s.injector()
	for len(rows) > 0 {
		k, n := home(rows[0]), 1
		for n < len(rows) && home(rows[n]) == k {
			n++
		}
		if err == nil {
			err = inj.Fail(fault.AppendError, k, 0)
		}
		if err == nil {
			var m int
			m, err = c.cols[k][0].commit(rows[:n])
			for j := 1; j < len(c.cols[k]) && m > 0; j++ {
				if !s.insync[k][j].Load() {
					continue
				}
				rerr := inj.Fail(fault.AppendError, k, j)
				if rerr == nil {
					_, rerr = c.cols[k][j].commit(rows[:m])
				}
				if rerr != nil && s.insync[k][j].CompareAndSwap(true, false) {
					s.repErrs.Add(1)
				}
			}
			committed += m
		}
		s.appendMu[k].Unlock()
		rows = rows[n:]
	}
	return committed, err
}

// Get routes a point lookup to the patch's home shard (primary).
func (c *ShardedCollection) Get(id PatchID) (*Patch, error) {
	return c.cols[c.s.ShardFor(id)][0].Get(id)
}

// Version folds the partitions' versions into one composite identity for
// plan fingerprinting: any single-shard write changes its shard's
// version and therefore the composite, so version-keyed caches
// invalidate exactly as in the unsharded case. With one shard the
// composite IS the shard version (fingerprints match an unsharded DB
// fed the same operations); with more it is an FNV-1a fold of the
// ordered shard versions. Versions always come from primaries —
// replicas fed the same appends advance in lockstep, and a demoted
// replica is no longer read.
func (c *ShardedCollection) Version() uint64 {
	if len(c.cols) == 1 {
		return c.cols[0][0].Version()
	}
	return compositeVersion(c.ShardVersions())
}

// ShardVersions returns each partition's current primary version, in
// shard order.
func (c *ShardedCollection) ShardVersions() []uint64 {
	vs := make([]uint64, len(c.cols))
	for i, rs := range c.cols {
		vs[i] = rs[0].Version()
	}
	return vs
}

// compositeVersion folds ordered shard versions into one uint64
// (FNV-1a over the 8-byte big-endian encodings).
func compositeVersion(vs []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range vs {
		for shift := 56; shift >= 0; shift -= 8 {
			h ^= (v >> uint(shift)) & 0xff
			h *= prime64
		}
	}
	return h
}
