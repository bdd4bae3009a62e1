package service

// The anti-entropy loop: the service-side driver that turns
// core.Sharded's replica re-sync into self-healing. Every
// ResyncInterval it sweeps the out-of-sync list — the replicas whose row
// counts differ from their primaries', after a missed append or a
// restart alike — and repairs each via ResyncReplica. A replica whose
// repair fails (injected resync-error faults, real storage trouble)
// backs off exponentially with jitter — a wedged replica must not turn
// the loop into a hot retry spin — and re-enters the normal cadence on
// its next success. The loop owns no correctness: ResyncReplica is
// safe to call at any time and appends only to a verified prefix.

import (
	"context"
	"math/rand/v2"
	"time"
)

const (
	// defaultResyncInterval is the anti-entropy sweep cadence when
	// Config.ResyncInterval is zero.
	defaultResyncInterval = 200 * time.Millisecond
	// resyncBackoffMax caps the per-replica retry backoff.
	resyncBackoffMax = 30 * time.Second
)

// replicaKey identifies one replica's backoff state.
type replicaKey struct{ shard, replica int }

// runAntiEntropy is the background repair loop; it exits when the
// service closes. Started only for replicated sharded backends.
func (s *Service) runAntiEntropy(interval time.Duration) {
	defer s.wg.Done()
	// Repairs must abandon their streams promptly on Close: derive a
	// context that dies with s.quit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-s.quit:
			cancel()
		case <-ctx.Done():
		}
	}()

	backoff := make(map[replicaKey]time.Duration) // failed replicas' current delay
	next := make(map[replicaKey]time.Time)        // earliest next attempt
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		now := time.Now()
		for _, lag := range s.shards.OutOfSyncReplicas() {
			k := replicaKey{lag.Shard, lag.Replica}
			if t, ok := next[k]; ok && now.Before(t) {
				continue
			}
			if _, err := s.shards.ResyncReplica(ctx, lag.Shard, lag.Replica); err != nil {
				// Exponential backoff with jitter: double the delay (from
				// one interval) and scatter attempts across [1x, 1.5x] so
				// replicas failing in lockstep don't retry in lockstep.
				d := backoff[k]
				if d <= 0 {
					d = interval
				} else {
					d *= 2
				}
				if d > resyncBackoffMax {
					d = resyncBackoffMax
				}
				backoff[k] = d
				next[k] = now.Add(d + time.Duration(rand.Int64N(int64(d/2)+1)))
				continue
			}
			delete(backoff, k)
			delete(next, k)
		}
	}
}
