package core

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/exec"
)

func shardTestSchema() Schema {
	return Schema{
		Data: Pixels(0, 0),
		Fields: []Field{
			{Name: "label", Kind: KindStr},
			{Name: "score", Kind: KindFloat},
			{Name: "emb", Kind: KindVec, VecDim: 4},
		},
	}
}

func shardTestPatch(i int) *Patch {
	return &Patch{
		Ref: Ref{Source: "cam", Frame: uint64(i)},
		Meta: Metadata{
			"label": StrV([]string{"car", "pedestrian", "bus"}[i%3]),
			"score": FloatV(float64(i%10) / 10),
			"emb":   VecV([]float32{float32(i), float32(i % 7), 0.5, -0.5}),
		},
	}
}

func TestShardedRoutingAndCombinedCatalog(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 4, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.CreateCollection("dets", shardTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	ids := make([]PatchID, 0, n)
	for i := 0; i < n; i++ {
		p := shardTestPatch(i)
		if err := sc.Append(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	if got := sc.Len(); got != n {
		t.Fatalf("combined Len = %d, want %d", got, n)
	}
	// Every patch lives exactly on its hash-designated shard.
	nonEmpty := 0
	for i := 0; i < s.NumShards(); i++ {
		if sc.Shard(i).Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("partitioner placed all %d patches on %d shard(s)", n, nonEmpty)
	}
	for _, id := range ids {
		home := s.ShardFor(id)
		if _, err := sc.Shard(home).Get(id); err != nil {
			t.Fatalf("patch %d missing from home shard %d: %v", id, home, err)
		}
		p, err := sc.Get(id)
		if err != nil || p.ID != id {
			t.Fatalf("routed Get(%d) = %v, %v", id, p, err)
		}
		if _, err := s.GetPatch(id); err != nil {
			t.Fatalf("GetPatch(%d): %v", id, err)
		}
	}
	if names := s.Collections(); len(names) != 1 || names[0] != "dets" {
		t.Fatalf("Collections() = %v", names)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the same count: contents intact.
	s2, err := OpenSharded(dir, 4, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sc2, err := s2.Collection("dets")
	if err != nil {
		t.Fatal(err)
	}
	if got := sc2.Len(); got != n {
		t.Fatalf("reopened Len = %d, want %d", got, n)
	}
}

func TestShardedReopenCountMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 4, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenSharded(dir, 2, exec.New(exec.CPU)); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen with mismatched shard count: err = %v, want ErrShardMismatch", err)
	}
}

// TestShardedSingleShardEquivalence pins the N=1 storage contract: the
// same operation sequence against a Sharded of one shard and a plain DB
// yields identical ids, versions and snapshot contents.
func TestShardedSingleShardEquivalence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(filepath.Join(dir, "plain.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := OpenSharded(filepath.Join(dir, "sharded"), 1, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pc, err := db.CreateCollection("dets", shardTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.CreateCollection("dets", shardTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pp, sp := shardTestPatch(i), shardTestPatch(i)
		if err := pc.Append(pp); err != nil {
			t.Fatal(err)
		}
		if err := sc.Append(sp); err != nil {
			t.Fatal(err)
		}
		if pp.ID != sp.ID {
			t.Fatalf("append %d: plain id %d, sharded id %d", i, pp.ID, sp.ID)
		}
	}
	if pc.Version() != sc.Version() {
		t.Fatalf("versions diverge: plain %d, sharded composite %d", pc.Version(), sc.Version())
	}
	pps, err := pc.Patches()
	if err != nil {
		t.Fatal(err)
	}
	sps, err := sc.Replica(0, 0).Patches()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Shards() != 1 || len(sps) != len(pps) {
		t.Fatalf("sharded snapshot shape %d shards / %d rows, want 1 / %d", sc.Shards(), len(sps), len(pps))
	}
	for i := range pps {
		if pps[i].ID != sps[i].ID || !metaVal(pps[i], "label").Equal(metaVal(sps[i], "label")) {
			t.Fatalf("snapshot row %d diverges: %v vs %v", i, pps[i], sps[i])
		}
	}
}

func TestShardedCompositeVersionTracksSingleShardWrites(t *testing.T) {
	s, err := OpenSharded(t.TempDir(), 3, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, err := s.CreateCollection("dets", shardTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{sc.Version(): true}
	// Each append lands on exactly one shard yet must move the composite.
	for i := 30; i < 60; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
		v := sc.Version()
		if seen[v] {
			t.Fatalf("composite version %d repeated after append %d", v, i)
		}
		seen[v] = true
	}
}

func TestShardedMaterializeAndDrop(t *testing.T) {
	s, err := OpenSharded(t.TempDir(), 4, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ps []*Patch
	for i := 0; i < 64; i++ {
		ps = append(ps, shardTestPatch(i))
	}
	sc, err := s.Materialize("mat", shardTestSchema(), FromPatches(ps))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 64 {
		t.Fatalf("materialized %d rows, want 64", sc.Len())
	}
	if err := s.DropCollection("mat"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumShards(); i++ {
		if _, err := s.Shard(i).Collection("mat"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("shard %d still has dropped collection: %v", i, err)
		}
	}
	// Recreate after drop works everywhere.
	if _, err := s.CreateCollection("mat", shardTestSchema()); err != nil {
		t.Fatal(err)
	}
}

func TestShardForDeterministicAndBounded(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		counts := make([]int, n)
		for id := PatchID(1); id <= 5000; id++ {
			h := int(shardHash(id) % uint64(n))
			counts[h]++
		}
		for i, c := range counts {
			// Uniformity within a loose band (5000/n ± 40%).
			lo, hi := 5000/n*6/10, 5000/n*14/10
			if c < lo || c > hi {
				t.Fatalf("n=%d shard %d got %d of 5000 ids (want %d..%d)", n, i, c, lo, hi)
			}
		}
	}
}

func TestShardedGetUnknownPatch(t *testing.T) {
	s, err := OpenSharded(t.TempDir(), 2, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.GetPatch(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetPatch(999) = %v, want ErrNotFound", err)
	}
	if _, err := s.Collection("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Collection(nope) = %v, want ErrNotFound", err)
	}
}

// TestWrapShardedSeesDropThroughUnderlyingDB: a wrapper over a DB its
// owner keeps using directly must resolve collections against that DB's
// live catalog. Dropping and re-creating a collection on the DB itself
// (a re-ingest) may never leave the wrapper serving the dropped handle.
func TestWrapShardedSeesDropThroughUnderlyingDB(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "plain.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := WrapSharded(db)
	ingest := func(rows int) *Collection {
		col, err := db.CreateCollection("dets", shardTestSchema())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := col.Append(shardTestPatch(i)); err != nil {
				t.Fatal(err)
			}
		}
		return col
	}
	ingest(5)
	before, err := s.Collection("dets")
	if err != nil {
		t.Fatal(err)
	}
	if before.Len() != 5 {
		t.Fatalf("wrapped Len = %d, want 5", before.Len())
	}
	if err := db.DropCollection("dets"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collection("dets"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("wrapper resolved a collection dropped on its DB: err = %v", err)
	}
	fresh := ingest(2)
	after, err := s.Collection("dets")
	if err != nil {
		t.Fatal(err)
	}
	if after.Shard(0) != fresh || after.Len() != 2 || after.Version() == before.Version() {
		t.Fatalf("wrapper serves a stale handle after re-ingest: len %d version %d (dropped: %d)",
			after.Len(), after.Version(), before.Version())
	}
}
