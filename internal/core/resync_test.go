package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
)

// resyncFixture builds a replicated database with rows appended, ready
// for demotion/repair scenarios.
func resyncFixture(t *testing.T, shards, replicas, rows int) (*Sharded, *ShardedCollection) {
	t.Helper()
	s, err := OpenShardedReplicas(t.TempDir(), shards, replicas, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sc, err := s.CreateCollection("dets", shardTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s, sc
}

// requireReplicaMatchesPrimary asserts the replica serves byte-identical
// snapshots to its primary for every shard it covers.
func requireReplicaMatchesPrimary(t *testing.T, sc *ShardedCollection, shard, replica int) {
	t.Helper()
	pp, err := sc.Replica(shard, 0).Patches()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := sc.Replica(shard, replica).Patches()
	if err != nil {
		t.Fatal(err)
	}
	if len(pp) != len(rp) {
		t.Fatalf("shard %d replica %d holds %d rows, primary %d", shard, replica, len(rp), len(pp))
	}
	for i := range pp {
		if !samePatchBytes(pp[i], rp[i]) {
			t.Fatalf("shard %d replica %d row %d differs from primary", shard, replica, i)
		}
	}
}

func TestResyncRepairsDemotedReplica(t *testing.T) {
	s, sc := resyncFixture(t, 2, 2, 60)

	// Demote shard 0's secondary via a certain injected append failure,
	// then keep appending: the frozen replica must receive nothing.
	s.SetFaults(fault.New(fault.Config{Seed: 1, Rules: []fault.Rule{
		{Point: fault.AppendError, Shard: 0, Replica: 1, Prob: 1},
	}}))
	hit0 := 0
	for i := 60; i < 180; i++ {
		p := shardTestPatch(i)
		if err := sc.Append(p); err != nil {
			t.Fatal(err)
		}
		if s.ShardFor(p.ID) == 0 {
			hit0++
		}
	}
	if hit0 == 0 {
		t.Fatal("no appends routed to shard 0; test is vacuous")
	}
	frozen := sc.Replica(0, 1).Len()
	if frozen >= sc.Replica(0, 0).Len() {
		t.Fatalf("demoted replica len %d not behind primary %d", frozen, sc.Replica(0, 0).Len())
	}
	// A demoted replica is out of the append fan-out: only the first
	// failed append should have fired the failpoint for shard 0.
	for i := 180; i < 200; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sc.Replica(0, 1).Len(); got != frozen {
		t.Fatalf("demoted replica grew %d -> %d; must be frozen", frozen, got)
	}
	if lags := s.OutOfSyncReplicas(); len(lags) != 1 || lags[0] != (ReplicaLag{Shard: 0, Replica: 1}) {
		t.Fatalf("OutOfSyncReplicas = %+v, want shard 0 replica 1", lags)
	}

	// Heal the fault and repair: the replica must rejoin with
	// byte-identical contents.
	s.SetFaults(nil)
	rows, err := s.ResyncReplica(context.Background(), 0, 1)
	if err != nil {
		t.Fatalf("resync: %v", err)
	}
	if rows == 0 {
		t.Fatal("resync streamed no rows over a lagging replica")
	}
	if got := s.InSyncReplicas(0); len(got) != 2 {
		t.Fatalf("shard 0 in-sync after resync = %v, want both", got)
	}
	if lags := s.OutOfSyncReplicas(); len(lags) != 0 {
		t.Fatalf("OutOfSyncReplicas after resync = %+v, want none", lags)
	}
	requireReplicaMatchesPrimary(t, sc, 0, 1)
	resyncs, streamed := s.ResyncStats()
	if resyncs != 1 || streamed != int64(rows) {
		t.Fatalf("ResyncStats = (%d, %d), want (1, %d)", resyncs, streamed, rows)
	}

	// The repaired replica is back in the write fan-out.
	before := sc.Replica(0, 1).Len()
	for i := 200; i < 260; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if sc.Replica(0, 1).Len() == before {
		t.Fatal("promoted replica received no post-repair appends")
	}
	requireReplicaMatchesPrimary(t, sc, 0, 1)

	// Repairing an in-sync replica is a no-op.
	if n, err := s.ResyncReplica(context.Background(), 0, 1); n != 0 || err != nil {
		t.Fatalf("resync of in-sync replica = (%d, %v), want (0, nil)", n, err)
	}
}

func TestTornResyncStaysDemoted(t *testing.T) {
	s, sc := resyncFixture(t, 1, 2, 50)
	if !s.Demote(0, 1) {
		t.Fatal("Demote(0,1) reported no transition")
	}
	// Grow the lag past one chunk so a mid-stream tear leaves a strict
	// partial repair.
	for i := 50; i < 50+3*commitChunk; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	frozen := sc.Replica(0, 1).Len()

	// Tear the repair mid-stream: the second chunk fails.
	s.SetFaults(fault.New(fault.Config{Seed: 7, Rules: []fault.Rule{
		{Point: fault.ResyncError, Shard: 0, Replica: 1, Prob: 1},
	}}))
	_, err := s.ResyncReplica(context.Background(), 0, 1)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn resync error = %v, want injected", err)
	}
	if got := s.InSyncReplicas(0); len(got) != 1 {
		t.Fatalf("in-sync after torn resync = %v, want primary only", got)
	}
	if lags := s.OutOfSyncReplicas(); len(lags) != 1 || lags[0].Resyncing {
		t.Fatalf("OutOfSyncReplicas after torn resync = %+v, want one idle lag", lags)
	}
	// A torn repair may have streamed some rows, but never past the
	// primary, and what landed must still be a byte-exact prefix.
	partial, err := sc.Replica(0, 1).Patches()
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) < frozen || len(partial) > sc.Replica(0, 0).Len() {
		t.Fatalf("torn repair left %d rows (frozen %d, primary %d)",
			len(partial), frozen, sc.Replica(0, 0).Len())
	}
	pp, err := sc.Replica(0, 0).Patches()
	if err != nil {
		t.Fatal(err)
	}
	for i, rp := range partial {
		if !samePatchBytes(rp, pp[i]) {
			t.Fatalf("torn repair corrupted row %d", i)
		}
	}
	if n, _ := s.ResyncStats(); n != 0 {
		t.Fatalf("torn repair counted as a resync (%d)", n)
	}

	// Heal and retry: the next attempt resumes from the partial prefix.
	s.SetFaults(nil)
	if _, err := s.ResyncReplica(context.Background(), 0, 1); err != nil {
		t.Fatalf("healed resync: %v", err)
	}
	if got := s.InSyncReplicas(0); len(got) != 2 {
		t.Fatalf("in-sync after healed resync = %v, want both", got)
	}
	requireReplicaMatchesPrimary(t, sc, 0, 1)
}

func TestResyncRejectsBadCoordinates(t *testing.T) {
	s, _ := resyncFixture(t, 1, 2, 4)
	for _, c := range [][2]int{{-1, 1}, {1, 1}, {0, 0}, {0, 2}} {
		if _, err := s.ResyncReplica(context.Background(), c[0], c[1]); err == nil {
			t.Fatalf("ResyncReplica(%d, %d) accepted bad coordinates", c[0], c[1])
		}
	}
	if s.Demote(0, 0) {
		t.Fatal("primary demotion must be refused")
	}
}

func TestResyncHonorsCancel(t *testing.T) {
	s, sc := resyncFixture(t, 1, 2, 10)
	s.Demote(0, 1)
	for i := 10; i < 10+2*commitChunk; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ResyncReplica(ctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled resync = %v, want context.Canceled", err)
	}
	if got := s.InSyncReplicas(0); len(got) != 1 {
		t.Fatalf("in-sync after canceled resync = %v, want primary only", got)
	}
}

// TestAppendDuringResyncHammer races live appends against a repair
// (stall-widened so the unlocked phase overlaps real writes) and
// requires the promoted replica to match the primary byte-for-byte.
// Run with -race; the catch-up round under the shard append lock is
// what keeps this sound.
func TestAppendDuringResyncHammer(t *testing.T) {
	s, sc := resyncFixture(t, 1, 2, commitChunk)
	s.Demote(0, 1)
	// Build a multi-chunk lag while the replica is frozen.
	for i := commitChunk; i < 3*commitChunk; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Widen the repair window: every chunk stalls briefly so appends
	// land mid-stream.
	s.SetFaults(fault.New(fault.Config{Seed: 11, Rules: []fault.Rule{
		{Point: fault.ResyncStall, Shard: 0, Replica: 1, Prob: 1, Stall: 2 * time.Millisecond},
	}}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 10_000
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := sc.Append(shardTestPatch(i)); err != nil {
				t.Errorf("append during resync: %v", err)
				return
			}
			i++
		}
	}()

	rows, err := s.ResyncReplica(context.Background(), 0, 1)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("resync under append load: %v", err)
	}
	if rows < 2*commitChunk {
		t.Fatalf("resync streamed %d rows, want >= %d", rows, 2*commitChunk)
	}
	if got := s.InSyncReplicas(0); len(got) != 2 {
		t.Fatalf("in-sync after hammer = %v, want both", got)
	}
	requireReplicaMatchesPrimary(t, sc, 0, 1)
}

// TestResyncRefusesReplicaRowWithOtherID: stored bytes do not hold the
// id, so verification compares ids too. A replica row that differs from
// the primary's only by its id fails samePatchBytes, and a repair over
// it refuses to promote the replica.
func TestResyncRefusesReplicaRowWithOtherID(t *testing.T) {
	s, sc := resyncFixture(t, 1, 2, 8)
	s.Demote(0, 1)
	if err := sc.Append(shardTestPatch(8)); err != nil {
		t.Fatal(err)
	}
	pp, err := sc.Replica(0, 0).Patches()
	if err != nil {
		t.Fatal(err)
	}
	last := pp[len(pp)-1]
	twin := last.Clone()
	if !samePatchBytes(last, twin) {
		t.Fatal("a row and its clone differ")
	}
	twin.ID += 1000
	if !bytes.Equal(twin.Marshal(), last.Marshal()) {
		t.Fatal("a row's bytes depend on its id")
	}
	if samePatchBytes(last, twin) || samePatchBytes(twin, last) {
		t.Fatalf("rows %d and %d compare equal", last.ID, twin.ID)
	}
	// The twin lands on the frozen replica outside the Sharded layer.
	if err := sc.Replica(0, 1).Append(twin); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ResyncReplica(context.Background(), 0, 1); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("resync over a row with another id = %v, want diverged", err)
	}
	if got := s.InSyncReplicas(0); len(got) != 1 {
		t.Fatalf("in-sync after refused resync = %v, want primary only", got)
	}
}
