package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
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

// freeze arms a certain append failure on one secondary, so every later
// append leaves it behind its primary.
func freeze(s *Sharded, shard, replica int) {
	s.SetFaults(fault.New(fault.Config{Seed: 1, Rules: []fault.Rule{
		{Point: fault.AppendError, Shard: shard, Replica: replica, Prob: 1},
	}}))
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

	// Leave shard 0's secondary behind via a certain injected append
	// failure, then keep appending: the frozen replica must receive
	// nothing.
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
	// A replica behind its primary takes no append, even once the
	// fault is disarmed: committing would leave a hole in its rows.
	s.SetFaults(nil)
	for i := 180; i < 200; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sc.Replica(0, 1).Len(); got != frozen {
		t.Fatalf("demoted replica grew %d -> %d; must be frozen", frozen, got)
	}
	want := ReplicaLag{Shard: 0, Replica: 1, Rows: sc.Replica(0, 0).Len() - frozen}
	if lags := s.OutOfSyncReplicas(); len(lags) != 1 || lags[0] != want {
		t.Fatalf("OutOfSyncReplicas = %+v, want %+v", lags, want)
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
	if got := sc.InSyncReplicas(0); len(got) != 2 {
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
	freeze(s, 0, 1)
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
	if got := sc.InSyncReplicas(0); len(got) != 1 {
		t.Fatalf("in-sync after torn resync = %v, want primary only", got)
	}
	if lags := s.OutOfSyncReplicas(); len(lags) != 1 {
		t.Fatalf("OutOfSyncReplicas after torn resync = %+v, want one lag", lags)
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
	if got := sc.InSyncReplicas(0); len(got) != 2 {
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
}

func TestResyncHonorsCancel(t *testing.T) {
	s, sc := resyncFixture(t, 1, 2, 10)
	freeze(s, 0, 1)
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
	if got := sc.InSyncReplicas(0); len(got) != 1 {
		t.Fatalf("in-sync after canceled resync = %v, want primary only", got)
	}
}

// TestAppendDuringResyncHammer races live batch appends, each spanning
// both shards, against a repair (stall-widened so its unlocked rounds
// overlap real writes) and requires the repaired replica to match the
// primary byte-for-byte. Run with -race. Conditional commits, not a
// lock, keep the unlocked rounds sound: a batch commits to the replica
// only when it is level with the primary, so it never lands rows the
// repair is copying. The repair's last round holds the append lock,
// which is what lets it level a replica the writer outpaces.
func TestAppendDuringResyncHammer(t *testing.T) {
	s, sc := resyncFixture(t, 2, 2, commitChunk)
	freeze(s, 0, 1)
	// Build a multi-chunk lag while the replica is frozen.
	for i := commitChunk; sc.Replica(0, 0).Len()-sc.Replica(0, 1).Len() < 2*commitChunk; i++ {
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
		for i := 10_000; ; i += 32 {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]*Patch, 32)
			for k := range batch {
				batch[k] = shardTestPatch(i + k)
			}
			if _, err := sc.AppendBatch(batch); err != nil {
				t.Errorf("append during resync: %v", err)
				return
			}
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
	if got := sc.InSyncReplicas(0); len(got) != 2 {
		t.Fatalf("in-sync after hammer = %v, want both", got)
	}
	requireReplicaMatchesPrimary(t, sc, 0, 1)
}

// TestConcurrentRepairsCopyEachRowOnce: two repairs of one replica run
// side by side, their rounds lined up by the same stall. Each commits
// at the count it read, so of two commits of the same rows only one
// lands: together they append exactly the rows the replica lacked, and
// neither fails.
func TestConcurrentRepairsCopyEachRowOnce(t *testing.T) {
	s, sc := resyncFixture(t, 1, 2, commitChunk)
	freeze(s, 0, 1)
	for i := commitChunk; i < 9*commitChunk; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.SetFaults(fault.New(fault.Config{Seed: 5, Rules: []fault.Rule{
		{Point: fault.ResyncStall, Shard: 0, Replica: 1, Prob: 1, Stall: 2 * time.Millisecond},
	}}))
	var rows [2]int
	var errs [2]error
	var wg sync.WaitGroup
	for k := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[k], errs[k] = s.ResyncReplica(context.Background(), 0, 1)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent repair: %v", err)
		}
	}
	if got := rows[0] + rows[1]; got != 8*commitChunk {
		t.Fatalf("repairs appended %d rows (%v), want %d", got, rows, 8*commitChunk)
	}
	requireReplicaMatchesPrimary(t, sc, 0, 1)
}

// TestAppendNeverWaitsForRepair: a repair holds no lock an append
// waits on. While a repair of shard 0's replica is stalled mid-stream,
// a batch touching both shards and a one-row append homed on each shard
// all return promptly; the repair, cancelled and run again, then levels
// the replica.
func TestAppendNeverWaitsForRepair(t *testing.T) {
	s, sc := resyncFixture(t, 2, 2, 20)
	freeze(s, 0, 1)
	next := 20
	for sc.Replica(0, 0).Len()-sc.Replica(0, 1).Len() <= commitChunk {
		if err := sc.Append(shardTestPatch(next)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	inj := fault.New(fault.Config{Seed: 3, Rules: []fault.Rule{
		{Point: fault.ResyncStall, Shard: 0, Replica: 1, Prob: 1, Stall: 10 * time.Second},
	}})
	s.SetFaults(inj)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// Registered after the fixture's Close, so it runs before it.
	t.Cleanup(func() { cancel(); wg.Wait() })
	repaired := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.ResyncReplica(ctx, 0, 1)
		repaired <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); inj.Fired(fault.ResyncStall) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the repair never reached its stall")
		}
	}

	within := func(what string, ps []*Patch) {
		t.Helper()
		done := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sc.AppendBatch(ps)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s still waiting after 2s on a stalled repair", what)
		}
	}
	batch := make([]*Patch, commitChunk)
	for i := range batch {
		batch[i] = shardTestPatch(next)
		next++
	}
	within("a 64-row batch", batch)
	if !slices.ContainsFunc(batch, func(p *Patch) bool { return s.ShardFor(p.ID) != s.ShardFor(batch[0].ID) }) {
		t.Fatal("the batch touched one shard; test is vacuous")
	}
	for k := 0; k < s.NumShards(); k++ {
		p := shardTestPatch(next)
		next++
		for p.ID = s.NewPatchID(); s.ShardFor(p.ID) != k; p.ID = s.NewPatchID() {
		}
		within(fmt.Sprintf("a one-row append homed on shard %d", k), []*Patch{p})
	}
	select {
	case err := <-repaired:
		t.Fatalf("the repair returned %v before its stall ended", err)
	default:
	}

	cancel()
	if err := <-repaired; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled repair = %v, want context.Canceled", err)
	}
	s.SetFaults(nil)
	if _, err := s.ResyncReplica(context.Background(), 0, 1); err != nil {
		t.Fatalf("repair with faults off: %v", err)
	}
	requireReplicaMatchesPrimary(t, sc, 0, 1)
}

// TestResyncRefusesReplicaRowWithOtherID: stored bytes do not hold the
// id, so verification compares ids too. A replica row that differs from
// the primary's only by its id fails samePatchBytes, and a repair over
// it refuses to append to the replica. The primary gains two rows, so
// the replica stays a row behind with the twin in place of the first.
func TestResyncRefusesReplicaRowWithOtherID(t *testing.T) {
	s, sc := resyncFixture(t, 1, 2, 8)
	freeze(s, 0, 1)
	for i := 8; i < 10; i++ {
		if err := sc.Append(shardTestPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	pp, err := sc.Replica(0, 0).Patches()
	if err != nil {
		t.Fatal(err)
	}
	last := pp[len(pp)-2]
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
	if got := sc.InSyncReplicas(0); len(got) != 1 {
		t.Fatalf("in-sync after refused resync = %v, want primary only", got)
	}
}

// TestResyncRechecksOnlyNewRows: a replica keeps the prefix a repair
// verified against its primary, and the next repair checks only the
// rows past it, so a retry after a failure does not read the whole
// replica again. A twin put in place of a verified row in the
// replica's memory goes unread; one past the prefix is refused.
func TestResyncRechecksOnlyNewRows(t *testing.T) {
	s, sc := resyncFixture(t, 1, 2, 8)
	next := 8
	lagBy := func(n int) {
		freeze(s, 0, 1)
		for ; n > 0; n-- {
			if err := sc.Append(shardTestPatch(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		s.SetFaults(nil)
	}
	rep := sc.Replica(0, 1)
	lagBy(2)
	if _, err := s.ResyncReplica(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := rep.verified.Load(); got != 8 {
		t.Fatalf("verified prefix after the first repair = %d, want the 8 rows it checked", got)
	}
	rep.mu.Lock()
	rep.tab.chunks[0].ids[0] += 1000 // a verified row turns into another
	rep.mu.Unlock()
	lagBy(2)
	if _, err := s.ResyncReplica(context.Background(), 0, 1); err != nil {
		t.Fatalf("repair re-read a verified row: %v", err)
	}
	lagBy(2)
	pp, err := sc.Replica(0, 0).Patches()
	if err != nil {
		t.Fatal(err)
	}
	twin := pp[rep.Len()].Clone()
	twin.ID += 1000
	if err := rep.Append(twin); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ResyncReplica(context.Background(), 0, 1); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("resync over an unverified row with another id = %v, want diverged", err)
	}
}

// samePatchBytes reports whether two patches have the same id and
// serialize identically (the bytes do not hold the id).
func samePatchBytes(a, b *Patch) bool {
	return a.ID == b.ID && bytes.Equal(a.Marshal(), b.Marshal())
}
