package core

// This file implements replica re-sync: the repair that brings a
// secondary level with its primary. A replica commits a shard's part
// only if it holds the rows its primary committed the part after (see
// ShardedCollection.AppendBatch), so a replica that missed a commit
// stays frozen at an exact prefix of its primary's commit sequence, and
// a restart does not change that: the counts come from the row logs.
// Repair is therefore an append of the primary's rows past the
// replica's. Any failure — injected via the resync-error/resync-stall
// failpoints or real — stops it, which is always safe: the replica only
// gained rows the primary committed, in its order, and the next repair
// resumes from that longer prefix.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
)

// sameRow reports whether row i of two snapshots has the same id and
// stores the same bytes (the bytes do not hold the id, the row log's
// framing does). The replicas' row tables hold their own copies, so it
// encodes both rows, into bufs, through views of them.
func sameRow(a, b Snapshot, i int, bufs *[2][]byte) bool {
	var pa, pb Patch
	a.tab.View(i, &pa)
	b.tab.View(i, &pb)
	if pa.ID != pb.ID {
		return false
	}
	bufs[0], _ = a.col.codec.appendEncoded(bufs[0][:0], &pa)
	bufs[1], _ = b.col.codec.appendEncoded(bufs[1][:0], &pb)
	return bytes.Equal(bufs[0], bufs[1])
}

// ResyncReplica brings one secondary level with its primary in every
// collection and returns the number of patches it appended. Repairing
// an in-sync replica is a no-op.
func (s *Sharded) ResyncReplica(ctx context.Context, shard, replica int) (int, error) {
	if shard < 0 || shard >= len(s.reps) || replica <= 0 || replica >= s.nrep {
		return 0, fmt.Errorf("core: resync shard %d replica %d: no such secondary", shard, replica)
	}
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
// primary's rows past its own. Rounds copy a chunk without a lock while
// the replica gains on the primary. The last, once it is within a chunk
// or no nearer than the round before, holds appendMu, so the primary
// cannot grow, and copies the rest: the repair ends level, and appends
// wait only for that copy, never for a stall.
func (s *Sharded) resyncCollection(ctx context.Context, shard, replica int, name string) (int, error) {
	prim, err := s.reps[shard][0].Collection(name)
	if err != nil {
		return 0, err
	}
	rcol, err := s.reps[shard][replica].Collection(name)
	if err != nil {
		return 0, err
	}
	rows, lag := 0, math.MaxInt
	var bufs [2][]byte
	// check reads the replica, then the primary (so one that has not
	// diverged is never seen ahead), and checks that the replica's rows
	// past its verified prefix are the primary's. Committed rows never
	// change, so the prefix carries from one repair to the next: a retry
	// checks only the rows the replica gained since.
	check := func() (rs, ps Snapshot, err error) {
		if rs, err = rcol.Current(); err != nil {
			return rs, ps, err
		}
		if ps, err = prim.Current(); err != nil {
			return rs, ps, err
		}
		have := rs.Len()
		if have > ps.Len() {
			return rs, ps, fmt.Errorf("replica holds %d rows, primary %d — diverged", have, ps.Len())
		}
		for i := int(rcol.verified.Load()); i < have; i++ {
			if !sameRow(rs, ps, i, &bufs) {
				return rs, ps, fmt.Errorf("row %d differs from primary — diverged", i)
			}
		}
		rcol.verified.Store(int64(have))
		return rs, ps, nil
	}
	// round checks the replica and commits up to max rows past its
	// count, or none if another repair got there first.
	round := func(max int) error {
		rs, ps, err := check()
		if err != nil {
			return err
		}
		have := rs.Len()
		part := make([]int32, min(max, ps.Len()-have))
		for j := range part {
			part[j] = int32(have + j)
		}
		b, err := rcol.prepare(ps.Materialize(part))
		if err != nil {
			return err
		}
		_, n, err := rcol.commit(b.rows, have)
		rcol.releaseEnc(b)
		if rows += n; errors.Is(err, errBehind) {
			return nil
		}
		return err
	}
	for rcol.Len() != prim.Len() {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		inj := s.injector()
		if err := inj.Fail(fault.ResyncError, shard, replica); err != nil {
			return rows, err
		}
		if err := inj.Stall(ctx, fault.ResyncStall, shard, replica); err != nil {
			return rows, err
		}
		prev := lag
		lag = prim.Len() - rcol.Len()
		last := lag <= commitChunk || lag >= prev
		if last {
			// Check before taking appendMu, which then covers only rows
			// the replica gained meanwhile: after a restart the check
			// reads every row, and appends must not wait for it.
			if _, _, err := check(); err != nil {
				return rows, err
			}
			s.appendMu.Lock()
			err = round(math.MaxInt)
			s.appendMu.Unlock()
		} else {
			err = round(commitChunk)
		}
		if err != nil || last {
			return rows, err
		}
	}
	return rows, nil
}
