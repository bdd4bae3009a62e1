package core

// This file implements replica re-sync: the repair that brings a
// secondary level with its primary. A replica commits a shard's part
// only if it holds the rows its primary committed the part after (see
// ShardedCollection.AppendBatch), so a replica that missed a commit
// stays frozen at an exact prefix of its primary's commit sequence, and
// a restart does not change that: the counts come from the row logs.
// Repair is therefore one pass under the shard's append lock: for each
// collection whose counts differ, verify the replica's rows are a
// byte-exact prefix of the primary's and append the rest, in chunks.
// Once the counts are equal the replica is in sync; there is no
// promotion step.
//
// Any failure — injected via the resync-error/resync-stall failpoints
// or real — stops the repair. Stopping is always safe: the replica only
// ever gained patches the primary had committed, in the primary's
// order, so it still holds a valid (longer) prefix and the next repair
// resumes from there. Appends to the shard wait while a repair runs.

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"repro/internal/fault"
)

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

// ResyncReplica brings one secondary level with its primary in every
// collection and returns the number of patches it appended. Repairing
// an in-sync replica is a no-op. On error the replica keeps the rows
// appended so far, still a prefix of the primary's, and a later attempt
// resumes from there.
func (s *Sharded) ResyncReplica(ctx context.Context, shard, replica int) (int, error) {
	if shard < 0 || shard >= len(s.shards) || replica <= 0 || replica >= s.nrep {
		return 0, fmt.Errorf("core: resync shard %d replica %d: no such secondary", shard, replica)
	}
	s.appendMu[shard].Lock()
	defer s.appendMu[shard].Unlock()
	rows := 0
	for _, name := range s.Collections() {
		n, err := s.resyncCollection(ctx, shard, replica, name)
		rows += n
		if err != nil {
			return rows, fmt.Errorf("core: resync shard %d replica %d: %q: %w", shard, replica, name, err)
		}
	}
	if rows > 0 {
		s.resyncs.Add(1)
		s.resyncRows.Add(int64(rows))
	}
	return rows, nil
}

// resyncCollection appends to the replica's copy of one collection the
// primary's rows past its own, once it has checked that the rows it
// holds are a byte-exact prefix of the primary's. Anything else means
// divergence (a replica fed writes outside the Sharded layer), which
// appending cannot repair. Caller holds the shard's append lock.
func (s *Sharded) resyncCollection(ctx context.Context, shard, replica int, name string) (int, error) {
	prim, err := s.reps[shard][0].Collection(name)
	if err != nil {
		return 0, err
	}
	rcol, err := s.reps[shard][replica].Collection(name)
	if err != nil || rcol.Len() == prim.Len() {
		return 0, err
	}
	pps, err := prim.Patches()
	if err != nil {
		return 0, err
	}
	rps, err := rcol.Patches()
	if err != nil {
		return 0, err
	}
	if len(rps) > len(pps) {
		return 0, fmt.Errorf("replica holds %d rows, primary %d — diverged", len(rps), len(pps))
	}
	for i, rp := range rps {
		if !samePatchBytes(rp, pps[i]) {
			return 0, fmt.Errorf("row %d differs from primary — diverged", i)
		}
	}
	rows := 0
	for chunk := range slices.Chunk(pps[len(rps):], commitChunk) {
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
		n, err := rcol.AppendBatch(chunk)
		rows += n
		if err != nil {
			return rows, err
		}
	}
	return rows, nil
}
