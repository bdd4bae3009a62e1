package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/fault"
)

func TestReplicatedLayoutAndByteEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedReplicas(dir, 3, 2, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	if s.Replicas() != 2 || s.NumShards() != 3 {
		t.Fatalf("topology = %dx%d, want 3x2", s.NumShards(), s.Replicas())
	}
	sc, err := s.CreateCollection("dets", shardTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Replica directories sit beside the primaries, each holding its
	// catalog once flushed.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, sub := range []string{replicaDirName(i, 0), replicaDirName(i, 1)} {
			if _, err := os.Stat(filepath.Join(dir, sub, "deeplens.db")); err != nil {
				t.Fatalf("missing replica store %s: %v", sub, err)
			}
		}
	}
	// Every replica mirrors its primary exactly: same rows, same ids,
	// same versions, same snapshot order.
	for i := 0; i < 3; i++ {
		prim, rep := sc.Replica(i, 0), sc.Replica(i, 1)
		if prim.Len() != rep.Len() {
			t.Fatalf("shard %d: primary %d rows, replica %d rows", i, prim.Len(), rep.Len())
		}
		if prim.Version() != rep.Version() {
			t.Fatalf("shard %d: primary version %d, replica version %d", i, prim.Version(), rep.Version())
		}
		pp, err := prim.Patches()
		if err != nil {
			t.Fatal(err)
		}
		rp, err := rep.Patches()
		if err != nil {
			t.Fatal(err)
		}
		for k := range pp {
			if pp[k].ID != rp[k].ID || !metaVal(pp[k], "label").Equal(metaVal(rp[k], "label")) {
				t.Fatalf("shard %d row %d diverges: %v vs %v", i, k, pp[k], rp[k])
			}
		}
		if got := sc.InSyncReplicas(i); len(got) != 2 {
			t.Fatalf("shard %d in-sync = %v, want both", i, got)
		}
	}
	infos := s.ShardInfos()
	for _, info := range infos {
		if info.Replicas != 2 || len(info.OutOfSync) != 0 {
			t.Fatalf("ShardInfo = %+v, want 2 healthy replicas", info)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the same topology: contents intact on every replica.
	s2, err := OpenShardedReplicas(dir, 3, 2, exec.New(exec.CPU))
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
	for i := 0; i < 3; i++ {
		if sc2.Replica(i, 0).Len() != sc2.Replica(i, 1).Len() {
			t.Fatalf("shard %d replica row counts diverge after reopen", i)
		}
	}
}

func TestReplicatedReopenMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedReplicas(dir, 2, 2, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenShardedReplicas(dir, 2, 3, exec.New(exec.CPU)); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen with mismatched replica count: %v, want ErrShardMismatch", err)
	}
	if _, err := OpenSharded(dir, 2, exec.New(exec.CPU)); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen R=2 directory at R=1: %v, want ErrShardMismatch", err)
	}
}

// TestSingleReplicaMetaBytesUnchanged pins the R=1 layout contract: the
// topology file of a single-replica directory is byte-identical to the
// pre-replication format, so existing directories reopen unchanged.
func TestSingleReplicaMetaBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 2, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	raw, err := os.ReadFile(filepath.Join(dir, shardMetaFile))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(raw), "{\"shards\":2}\n"; got != want {
		t.Fatalf("R=1 %s = %q, want %q", shardMetaFile, got, want)
	}
}

func TestSecondaryAppendFailureDemotesReplica(t *testing.T) {
	s, err := OpenShardedReplicas(t.TempDir(), 2, 2, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, err := s.CreateCollection("dets", shardTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Arm a certain append failure on replica 1 of shard 0: appends that
	// land on shard 0 must still succeed, demoting the replica.
	s.SetFaults(fault.New(fault.Config{Seed: 1, Rules: []fault.Rule{
		{Point: fault.AppendError, Shard: 0, Replica: 1, Prob: 1},
	}}))
	hit0 := 0
	for i := 40; i < 120; i++ {
		p := shardTestPatch(i)
		if err := sc.Append(p); err != nil {
			t.Fatalf("append with failing secondary must succeed: %v", err)
		}
		if s.ShardFor(p.ID) == 0 {
			hit0++
		}
	}
	if hit0 == 0 {
		t.Fatal("no appends routed to shard 0; test is vacuous")
	}
	if got := sc.InSyncReplicas(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("shard 0 in-sync = %v, want primary only", got)
	}
	if got := sc.InSyncReplicas(1); len(got) != 2 {
		t.Fatalf("shard 1 in-sync = %v, want both", got)
	}
	if s.ReplicaAppendErrors() == 0 {
		t.Fatal("replica append errors not counted")
	}
	// The demoted replica is behind; the primary holds everything.
	if sc.Replica(0, 1).Len() >= sc.Replica(0, 0).Len() {
		t.Fatalf("demoted replica len %d not behind primary %d",
			sc.Replica(0, 1).Len(), sc.Replica(0, 0).Len())
	}
	infos := s.ShardInfos()
	if len(infos[0].OutOfSync) != 1 || infos[0].OutOfSync[0] != 1 {
		t.Fatalf("ShardInfo[0].OutOfSync = %v, want [1]", infos[0].OutOfSync)
	}
}

func TestPrimaryAppendFailureFailsAppend(t *testing.T) {
	s, err := OpenShardedReplicas(t.TempDir(), 1, 2, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, err := s.CreateCollection("dets", shardTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults(fault.New(fault.Config{Seed: 1, Rules: []fault.Rule{
		{Point: fault.AppendError, Shard: fault.Any, Replica: 0, Prob: 1},
	}}))
	err = sc.Append(shardTestPatch(0))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("primary failure must fail the append, got %v", err)
	}
	// The failed append touched no replica: neither holds the row and
	// both stay in sync (no divergence to demote).
	if sc.Replica(0, 0).Len() != 0 || sc.Replica(0, 1).Len() != 0 {
		t.Fatalf("failed append left rows: primary %d, replica %d",
			sc.Replica(0, 0).Len(), sc.Replica(0, 1).Len())
	}
	if got := sc.InSyncReplicas(0); len(got) != 2 {
		t.Fatalf("in-sync after primary-failed append = %v, want both", got)
	}
}
