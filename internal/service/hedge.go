package service

import (
	"context"
	"strconv"
	"time"

	"repro/internal/fault"
)

// Hedged, deadline-aware fragment execution. Every shard of a scatter
// runs its fragment against one in-sync replica; if that attempt is
// still running after Config.HedgeAfter, a second attempt launches on
// the next replica and the first response wins — the loser's context
// is canceled so it stops scanning. A fragment that fails outright gets
// one immediate retry, on the next replica, before the shard is declared
// missing.
//
// The single-replica, no-fault-injection case takes a separate inline
// path — no goroutine, no channel, no timer — because it has nothing to
// hedge against and is what every query over an unreplicated backend
// runs.

// fragmentAttempt runs shard i's whole fragment — snapshot, filter or
// kNN probe, and for a similarity join the materialization of the rows
// it joins — against replica r, into frag. It passes the fragment
// failpoints first, so injected faults behave exactly like a slow or
// failing replica would.
func (s *Service) fragmentAttempt(ctx context.Context, plan *fragmentPlan, i, r int, frag *shardFragment) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.inj.Fail(fault.FragmentError, i, r); err != nil {
		return err
	}
	if err := s.inj.Stall(ctx, fault.FragmentStall, i, r); err != nil {
		return err
	}
	snap, err := plan.scol.Replica(i, r).Current()
	if err != nil {
		return err
	}
	*frag = shardFragment{snap: snap, rows: frag.rows[:0], block: frag.block[:0]}
	req := plan.req
	if req.KNN != nil {
		// Planned and probed on this replica's own snapshot and index.
		err = frag.knnProbe(req.KNN, plan.knnQ)
	} else {
		err = s.filterFragment(ctx, plan, frag)
	}
	if err == nil && req.SimJoin != nil {
		frag.materialize()
	}
	return err
}

// hedgedFragment produces shard i's fragment from whichever in-sync
// replica answers first. Policy: start on one replica; hedge to the
// next after Config.HedgeAfter elapses; on an error, retry once at once
// on the next replica in line; first success wins and cancels the
// loser. Returns the parent context's error verbatim when the query
// was canceled or timed out. The inline path writes the fragment into
// slot, the request's own; a hedged or retried attempt on another
// goroutine writes its own, since a loser may still be running when
// the query returns.
func (s *Service) hedgedFragment(ctx context.Context, plan *fragmentPlan, i int, slot *shardFragment) (*shardFragment, error) {
	req := plan.req
	replicas := plan.scol.InSyncReplicas(i)
	sp := req.tr.Begin("fragment")

	// Inline path: a single healthy replica and no fault injection has
	// nothing to hedge against — run the attempt on the caller's
	// goroutine, keeping the one error-retry.
	if len(replicas) == 1 && s.inj == nil {
		start := time.Now()
		err := s.fragmentAttempt(ctx, plan, i, replicas[0], slot)
		if err != nil && ctx.Err() == nil {
			s.tel.fragmentRetries.Inc()
			start = time.Now()
			err = s.fragmentAttempt(ctx, plan, i, replicas[0], slot)
		}
		sp.End()
		if err != nil {
			return nil, err
		}
		s.tel.fragmentDur.Observe(time.Since(start).Seconds())
		slot.annotate(sp, plan, i)
		return slot, nil
	}

	type attempt struct {
		frag    *shardFragment
		replica int
		dur     time.Duration
		err     error
	}
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	// Buffered past the maximum launch count (initial + hedge + retry)
	// so late losers never block on send after the winner returns.
	resCh := make(chan attempt, 4)
	next := 0
	launch := func() int {
		r := replicas[next%len(replicas)]
		next++
		go func() {
			start := time.Now()
			frag := new(shardFragment)
			err := s.fragmentAttempt(actx, plan, i, r, frag)
			resCh <- attempt{frag: frag, replica: r, dur: time.Since(start), err: err}
		}()
		return r
	}
	outstanding := 1
	launch()

	budget := s.cfg.HedgeAfter // 0 when hedging is disabled
	var hedgeC <-chan time.Time
	if budget > 0 && len(replicas) > 1 {
		ht := time.NewTimer(budget)
		defer ht.Stop()
		hedgeC = ht.C
	}
	var (
		retried      bool
		hedged       bool
		hedgeStart   time.Time
		hedgeReplica int
	)
	for {
		select {
		case res := <-resCh:
			outstanding--
			if res.err == nil {
				acancel() // stop the losing attempt, if one is running
				s.tel.fragmentDur.Observe(res.dur.Seconds())
				sp.End()
				res.frag.annotate(sp, plan, i)
				sp.AttrInt("replica", int64(res.replica))
				if hedged {
					winner := "original"
					if res.replica == hedgeReplica {
						winner = "hedge"
					}
					req.tr.AddSpan("hedge", hedgeStart, time.Since(hedgeStart), map[string]string{
						"shard":   strconv.Itoa(i),
						"replica": strconv.Itoa(hedgeReplica),
						"budget":  budget.String(),
						"winner":  winner,
					})
				}
				return res.frag, nil
			}
			if err := ctx.Err(); err != nil {
				if outstanding == 0 {
					sp.End()
					return nil, err
				}
				continue // drain the remaining attempt
			}
			if !retried {
				// One retry, at once, on the next replica in line.
				retried = true
				s.tel.fragmentRetries.Inc()
				outstanding++
				launch()
				continue
			}
			if outstanding == 0 {
				sp.End()
				return nil, res.err
			}
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			hedgeStart = time.Now()
			s.tel.hedgedFragments.Inc()
			outstanding++
			hedgeReplica = launch()
		case <-ctx.Done():
			sp.End()
			return nil, ctx.Err()
		}
	}
}
