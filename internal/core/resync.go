package core

// This file implements replica re-sync: the repair path that returns a
// demoted replica to the read set. Demotion (a failed secondary append)
// freezes the replica — the append fan-out skips out-of-sync replicas —
// so a demoted replica always holds an exact prefix of its primary's
// commit sequence. Repair is therefore suffix streaming: verify the
// replica's existing prefix byte-for-byte against the primary, append
// the missing patches, and promote.
//
// The engine runs in two phases so bulk transfer never blocks writers:
//
//  1. Unlocked stream. Snapshot primary and replica per collection,
//     certify the replica's rows are a byte-exact prefix of the
//     primary's snapshot, then append the missing suffix in chunks.
//     Appends landing concurrently only ever extend the primary
//     snapshot (prefix stability), so nothing streamed here can be
//     invalidated — the replica just ends the phase slightly behind
//     again.
//  2. Catch-up under the shard's append lock. Re-snapshot the primary
//     (its row cache only grows, so the new snapshot holds the phase-1
//     rows followed by later appends), append the rows past the
//     phase-1 count, verify the replica now matches the primary
//     entry-for-entry, and CAS the replica back into the
//     in-sync read set before releasing the lock. Writers blocked for
//     only the tail, and the promoted replica has missed nothing.
//
// Any failure — injected via the resync-error/resync-stall failpoints
// or real — aborts the repair and leaves the replica demoted. Aborting
// is always safe: the replica only ever gained patches the primary had
// committed, in the primary's order, so it still holds a valid (longer)
// prefix and the next repair attempt resumes from there. A replica is
// never half-promoted.

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/fault"
)

// resyncChunk is how many patches a repair streams between failpoint
// and cancellation checks.
const resyncChunk = 64

// samePatchBytes reports whether two patches have the same id and
// serialize identically (the bytes do not hold the id, the row log's
// framing does). Replicated appends share patch pointers across replicas, so the
// common case is a pointer compare; marshaling only happens when a
// replica was cold-loaded from its own store.
func samePatchBytes(a, b *Patch) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.ID != b.ID {
		return false
	}
	return bytes.Equal(a.Marshal(), b.Marshal())
}

// resyncState carries one collection's phase-1 progress into the locked
// catch-up round.
type resyncState struct {
	name      string
	primary   *Collection
	replica   *Collection
	certified int // rows of the primary snapshot phase 1 streamed from
}

// ResyncReplica repairs one demoted replica by streaming the primary's
// missing patch suffix and verifying the result byte-for-byte, then
// promotes the replica back into the read set. It returns the number
// of patches streamed. Repairing an in-sync replica is a no-op, as is
// racing a repair already in flight for the same replica. On error the
// replica stays demoted (never half-in-sync) and a later attempt can
// resume from whatever valid prefix this one reached.
func (s *Sharded) ResyncReplica(ctx context.Context, shard, replica int) (int, error) {
	if shard < 0 || shard >= len(s.shards) || replica <= 0 || replica >= s.nrep {
		return 0, fmt.Errorf("core: resync shard %d replica %d: no such secondary", shard, replica)
	}
	if s.insync[shard][replica].Load() {
		return 0, nil
	}
	if !s.resyncing[shard][replica].CompareAndSwap(false, true) {
		return 0, nil // another repair owns this replica
	}
	defer s.resyncing[shard][replica].Store(false)

	rows := 0
	var states []resyncState
	// Phase 1: unlocked bulk stream, collection by collection.
	for _, name := range s.Collections() {
		st, n, err := s.streamSuffix(ctx, shard, replica, name)
		rows += n
		if err != nil {
			return rows, err
		}
		states = append(states, st)
	}

	// Phase 2: catch-up and promotion under the shard's append lock.
	// No append can land while it is held, so once every collection
	// verifies clean the replica is exactly the primary.
	s.appendMu[shard].Lock()
	defer s.appendMu[shard].Unlock()
	for _, st := range states {
		n, err := s.catchUp(ctx, shard, replica, st)
		rows += n
		if err != nil {
			return rows, err
		}
	}
	if s.insync[shard][replica].CompareAndSwap(false, true) {
		s.resyncs.Add(1)
		s.resyncRows.Add(int64(rows))
	}
	return rows, nil
}

// streamSuffix verifies the replica's existing rows are a byte-exact
// prefix of the primary's snapshot for one collection and appends the
// missing suffix in chunks, without holding the shard's append lock.
func (s *Sharded) streamSuffix(ctx context.Context, shard, replica int, name string) (resyncState, int, error) {
	var st resyncState
	sc, err := s.Collection(name)
	if err != nil {
		return st, 0, fmt.Errorf("core: resync shard %d replica %d: open %q: %w", shard, replica, name, err)
	}
	st = resyncState{name: name, primary: sc.cols[shard][0], replica: sc.cols[shard][replica]}
	pps, err := st.primary.Patches()
	if err != nil {
		return st, 0, fmt.Errorf("core: resync shard %d replica %d: snapshot primary %q: %w", shard, replica, name, err)
	}
	st.certified = len(pps)
	rps, err := st.replica.Patches()
	if err != nil {
		return st, 0, fmt.Errorf("core: resync shard %d replica %d: snapshot replica %q: %w", shard, replica, name, err)
	}
	// The demoted replica must hold an exact prefix of the primary's
	// commit sequence. Anything else means divergence (a replica fed
	// writes outside the Sharded layer) and is unrepairable by
	// streaming: refuse rather than promote bad bytes.
	if len(rps) > len(pps) {
		return st, 0, fmt.Errorf("core: resync shard %d replica %d: %q replica holds %d rows, primary %d — diverged",
			shard, replica, name, len(rps), len(pps))
	}
	for i, rp := range rps {
		if !samePatchBytes(rp, pps[i]) {
			return st, 0, fmt.Errorf("core: resync shard %d replica %d: %q row %d differs from primary — diverged",
				shard, replica, name, i)
		}
	}
	rows, err := s.appendRange(ctx, shard, replica, st.replica, pps[len(rps):])
	if err != nil {
		return st, rows, fmt.Errorf("core: resync shard %d replica %d: stream %q: %w", shard, replica, name, err)
	}
	return st, rows, nil
}

// catchUp appends whatever the primary committed after phase 1's
// snapshot and verifies the replica now matches the primary
// entry-for-entry. Caller holds the shard's append lock.
func (s *Sharded) catchUp(ctx context.Context, shard, replica int, st resyncState) (int, error) {
	pps, err := st.primary.Patches()
	if err != nil {
		return 0, fmt.Errorf("core: resync shard %d replica %d: re-snapshot primary %q: %w", shard, replica, st.name, err)
	}
	if len(pps) < st.certified {
		return 0, fmt.Errorf("core: resync shard %d replica %d: %q snapshot shrank below the streamed prefix",
			shard, replica, st.name)
	}
	rows, err := s.appendRange(ctx, shard, replica, st.replica, pps[st.certified:])
	if err != nil {
		return rows, fmt.Errorf("core: resync shard %d replica %d: catch up %q: %w", shard, replica, st.name, err)
	}
	rps, err := st.replica.Patches()
	if err != nil {
		return rows, fmt.Errorf("core: resync shard %d replica %d: verify %q: %w", shard, replica, st.name, err)
	}
	if len(rps) != len(pps) {
		return rows, fmt.Errorf("core: resync shard %d replica %d: %q repaired to %d rows, primary has %d",
			shard, replica, st.name, len(rps), len(pps))
	}
	for i := range pps {
		if !samePatchBytes(rps[i], pps[i]) {
			return rows, fmt.Errorf("core: resync shard %d replica %d: %q row %d differs after repair",
				shard, replica, st.name, i)
		}
	}
	return rows, nil
}

// appendRange streams patches to a replica collection in resyncChunk
// batches, evaluating the resync failpoints and ctx between chunks.
func (s *Sharded) appendRange(ctx context.Context, shard, replica int, rcol *Collection, ps []*Patch) (int, error) {
	rows := 0
	for off := 0; off < len(ps); off += resyncChunk {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
		}
		inj := s.injector()
		if err := inj.Fail(fault.ResyncError, shard, replica); err != nil {
			return rows, err
		}
		if err := inj.Stall(ctx, fault.ResyncStall, shard, replica); err != nil {
			return rows, err
		}
		end := off + resyncChunk
		if end > len(ps) {
			end = len(ps)
		}
		for _, p := range ps[off:end] {
			if err := rcol.Append(p); err != nil {
				return rows, err
			}
			rows++
		}
	}
	return rows, nil
}
