package service

import (
	"context"
	"math/rand/v2"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// Hedged, deadline-aware fragment execution. Every shard of a scatter
// runs its fragment against one in-sync replica; if that attempt is
// still running after Config.HedgeAfter, a second attempt launches on
// the next replica and the first response wins — the loser's context
// is canceled so it stops scanning. A fragment that fails outright gets
// one retry with jittered backoff before the shard is declared missing.
//
// The single-replica, no-fault-injection case takes a separate inline
// path — no goroutine, no channel, no timer — because it has nothing to
// hedge against and is what every query over an unreplicated backend
// runs.

// retryBaseDelay/retryJitter space the single error-retry so a
// deterministic failure (full disk, poisoned block) isn't hammered
// back-to-back, with jitter to de-correlate shards retrying at once.
const (
	retryBaseDelay = 2 * time.Millisecond
	retryJitter    = 2 * time.Millisecond
)

// retryDelay returns the jittered backoff before the single fragment
// error-retry.
func retryDelay() time.Duration {
	return retryBaseDelay + time.Duration(rand.Int64N(int64(retryJitter)))
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// fragmentAttempt runs shard i's whole fragment — snapshot, filter or
// kNN probe, materialization of the rows the gather stage will consume
// — against replica r. It passes the fragment failpoints first, so
// injected faults behave exactly like a slow or failing replica would.
func (s *Service) fragmentAttempt(ctx context.Context, plan *fragmentPlan, i, r int) (*shardFragment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.inj.Fail(fault.FragmentError, i, r); err != nil {
		return nil, err
	}
	if err := s.inj.Stall(ctx, fault.FragmentStall, i, r); err != nil {
		return nil, err
	}
	col := plan.scol.Replica(i, r)
	snap, ver, err := col.Snapshot()
	if err != nil {
		return nil, err
	}
	frag := &shardFragment{col: col, snap: snap, ver: ver}
	req := plan.req
	if req.KNN != nil {
		// Planned and probed on this replica's own snapshot and index.
		err = frag.knnProbe(s.cost, req.KNN, plan.knnQ)
	} else {
		err = s.filterFragment(ctx, plan, i, r, frag)
	}
	if err == nil {
		switch plan.keep.Kind {
		case core.KeepAll:
			// Joins and clustering read every matched row.
			frag.rows, err = frag.Patches(ctx, col, snap, -1)
		case core.KeepTop:
			// Shard-local top-limit instead of a full sort: the merge stage
			// only ever consumes the first `limit` rows of each fragment.
			frag.rows, err = frag.topK(ctx, req.OrderBy, req.Desc, plan.limit)
		case core.KeepFirst:
			frag.rows, err = frag.Patches(ctx, col, snap, plan.limit)
		}
	}
	if err != nil {
		return nil, err
	}
	return frag, nil
}

// hedgedFragment produces shard i's fragment from whichever in-sync
// replica answers first. Policy: start on one replica; hedge to the
// next after Config.HedgeAfter elapses; on an error, retry once (jittered)
// on the next replica in line; first success wins and cancels the
// loser. Returns the parent context's error verbatim when the query
// was canceled or timed out.
func (s *Service) hedgedFragment(ctx context.Context, plan *fragmentPlan, i int) (*shardFragment, error) {
	req := plan.req
	replicas := s.shards.InSyncReplicas(i)
	sp := req.tr.Begin("fragment")

	// Inline path: a single healthy replica and no fault injection has
	// nothing to hedge against — run the attempt on the caller's
	// goroutine, keeping the one error-retry.
	if len(replicas) == 1 && s.inj == nil {
		start := time.Now()
		frag, err := s.fragmentAttempt(ctx, plan, i, replicas[0])
		if err != nil && ctx.Err() == nil {
			s.tel.fragmentRetries.Inc()
			if serr := sleepCtx(ctx, retryDelay()); serr != nil {
				sp.End()
				return nil, serr
			}
			start = time.Now()
			frag, err = s.fragmentAttempt(ctx, plan, i, replicas[0])
		}
		sp.End()
		if err != nil {
			return nil, err
		}
		s.tel.fragmentDur.Observe(time.Since(start).Seconds())
		frag.annotate(sp, plan, i)
		return frag, nil
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
			frag, err := s.fragmentAttempt(actx, plan, i, r)
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
		retryC       <-chan time.Time
		hedged       bool
		hedgeStart   time.Time
		hedgeReplica int
		lastErr      error
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
			lastErr = res.err
			if !retried {
				// One retry, on the next replica in line, after a
				// jittered backoff.
				retried = true
				s.tel.fragmentRetries.Inc()
				rt := time.NewTimer(retryDelay())
				defer rt.Stop()
				retryC = rt.C
				continue
			}
			if outstanding == 0 && retryC == nil {
				sp.End()
				return nil, lastErr
			}
		case <-retryC:
			retryC = nil
			outstanding++
			launch()
		case <-hedgeC:
			hedgeC = nil
			if outstanding == 0 {
				continue // an error beat the budget; the retry path owns recovery
			}
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
