package core

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/fault"
)

// laggingReplicas opens a 2-shard x 2-replica database at dir and
// leaves replica 1 of every shard behind: 100 rows, a Flush, then more
// rows with append-error armed on replica 1.
func laggingReplicas(t *testing.T, dir string, more int) *Sharded {
	t.Helper()
	s, err := OpenShardedReplicas(dir, 2, 2, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.CreateCollection("dets", shardTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(fault.New(fault.Config{Seed: 1, Rules: []fault.Rule{
		{Point: fault.AppendError, Shard: fault.Any, Replica: 1, Prob: 1},
	}}))
	for i := 100; i < 100+more; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// requireReopenedLagRepaired reopens dir, made by laggingReplicas, and
// checks that each lagging replica is out of the read set, takes no
// append (so it gets no hole), and that ResyncReplica brings it level
// with its primary byte for byte.
func requireReopenedLagRepaired(t *testing.T, dir string) {
	t.Helper()
	s, err := OpenShardedReplicas(dir, 2, 2, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, err := s.Collection("dets")
	if err != nil {
		t.Fatal(err)
	}
	lags := s.OutOfSyncReplicas()
	if len(lags) != 2 {
		t.Fatalf("reopened OutOfSyncReplicas = %+v, want replica 1 of both shards", lags)
	}
	var frozen [2]int
	for i := range frozen {
		frozen[i] = sc.Replica(i, 1).Len()
		behind := sc.Replica(i, 0).Len() - frozen[i]
		if behind <= 0 {
			t.Fatalf("shard %d: replica holds %d rows, primary %d; the test is vacuous", i, frozen[i], sc.Replica(i, 0).Len())
		}
		if want := (ReplicaLag{Shard: i, Replica: 1, Rows: behind}); lags[i] != want {
			t.Fatalf("lag %d = %+v, want %+v", i, lags[i], want)
		}
		if got := sc.InSyncReplicas(i); len(got) != 1 || got[0] != 0 {
			t.Fatalf("shard %d read set after reopen = %v, want the primary only", i, got)
		}
		if info := s.ShardInfos()[i]; len(info.OutOfSync) != 1 || info.OutOfSync[0] != 1 {
			t.Fatalf("ShardInfo[%d].OutOfSync = %v, want [1]", i, info.OutOfSync)
		}
	}
	for i := 0; i < 40; i++ {
		if err := sc.Append(shardTestPatch(5000 + i)); err != nil {
			t.Fatalf("append after reopen: %v", err)
		}
	}
	for i := range frozen {
		if got := sc.Replica(i, 1).Len(); got != frozen[i] {
			t.Fatalf("shard %d: lagging replica took appends, %d -> %d rows", i, frozen[i], got)
		}
		if _, err := s.ResyncReplica(context.Background(), i, 1); err != nil {
			t.Fatalf("resync shard %d: %v", i, err)
		}
		requireReplicaMatchesPrimary(t, sc, i, 1)
		if got := sc.InSyncReplicas(i); len(got) != 2 {
			t.Fatalf("shard %d read set after resync = %v, want both", i, got)
		}
	}
	if lags := s.OutOfSyncReplicas(); len(lags) != 0 {
		t.Fatalf("OutOfSyncReplicas after resync = %+v, want none", lags)
	}
}

// TestLaggingReplicaReopenedIsRepaired: a replica that missed rows
// before a Close is still behind after the reopen.
func TestLaggingReplicaReopenedIsRepaired(t *testing.T) {
	dir := t.TempDir()
	if err := laggingReplicas(t, dir, 50).Close(); err != nil {
		t.Fatal(err)
	}
	requireReopenedLagRepaired(t, dir)
}

// TestLaggingReplicaCopiedIsRepaired: the same from a copy taken without
// Close. The catalogs still count the rows of the last Flush; the
// primaries' row logs hold the blocks written since.
func TestLaggingReplicaCopiedIsRepaired(t *testing.T) {
	dir := t.TempDir()
	s := laggingReplicas(t, dir, 1000)
	defer s.Close()
	requireReopenedLagRepaired(t, copyDir(t, dir))
}

// TestNextIDResumesPastRowLogs: a copy taken without Close holds row
// log blocks written after the catalog's last Flush, so the reopened
// id counter must resume past their ids, on shard 0's allocator for
// every shard. Unsharded and at 3 shards: 10 rows, Flush, 1,990 more,
// copy, reopen, append; no id appears twice.
func TestNextIDResumesPastRowLogs(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(map[int]string{0: "unsharded", 3: "3shards"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			open := func(dir string) (*Sharded, *ShardedCollection) {
				var s *Sharded
				if shards == 0 {
					db, err := Open(filepath.Join(dir, "dl.db"), exec.New(exec.CPU))
					if err != nil {
						t.Fatal(err)
					}
					s = WrapSharded(db)
				} else {
					var err error
					if s, err = OpenSharded(dir, shards, exec.New(exec.CPU)); err != nil {
						t.Fatal(err)
					}
				}
				t.Cleanup(func() { s.Close() })
				sc, err := s.Collection("dets")
				if err != nil {
					sc, err = s.CreateCollection("dets", shardTestSchema())
				}
				if err != nil {
					t.Fatal(err)
				}
				return s, sc
			}
			s, sc := open(dir)
			for i := 0; i < 2000; i++ {
				if i == 10 {
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				if err := sc.Append(shardTestPatch(i)); err != nil {
					t.Fatal(err)
				}
			}
			_, sc2 := open(copyDir(t, dir))
			for i := 2000; i < 2010; i++ {
				if err := sc2.Append(shardTestPatch(i)); err != nil {
					t.Fatalf("append after reopen: %v", err)
				}
			}
			if sc2.Len() <= 20 {
				t.Fatalf("the copy holds %d rows; no block was written after the Flush", sc2.Len()-10)
			}
			seen := map[PatchID]bool{}
			for k := 0; k < sc2.Shards(); k++ {
				ps, err := sc2.Shard(k).Patches()
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range ps {
					if seen[p.ID] {
						t.Fatalf("id %d appears twice", p.ID)
					}
					seen[p.ID] = true
				}
			}
			if len(seen) != sc2.Len() {
				t.Fatalf("%d distinct ids over %d rows", len(seen), sc2.Len())
			}
		})
	}
}
