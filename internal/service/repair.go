package service

// The anti-entropy loop: the service-side driver that turns
// core.Sharded's replica re-sync into self-healing. Every
// ResyncInterval it sweeps the out-of-sync list — the replicas whose row
// counts differ from their primaries', after a missed append or a
// restart alike — and repairs each via ResyncReplica. A replica whose
// repair fails (injected resync-error faults, real storage trouble)
// backs off exponentially with jitter — a wedged replica must not turn
// the loop into a hot retry spin — and re-enters the normal cadence on
// its next success, or once a sweep finds it level. The loop owns no
// correctness: ResyncReplica is safe to call at any time and appends
// only to a verified prefix.

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

// repairBackoff, when false, retries a failed repair on the next sweep
// like any other lagging replica: the fixed-cadence arm of the backoff
// ablation. repairJitter draws the jitter added to a failed replica's
// delay d. Both are variables so the ablation can pin them.
var (
	repairBackoff = true
	repairJitter  = func(d time.Duration) time.Duration { return time.Duration(rand.Int64N(int64(d/2) + 1)) }
)

// replicaKey identifies one replica; backoff is a failed replica's
// current delay and the earliest time of its next attempt.
type (
	replicaKey struct{ shard, replica int }
	backoff    struct {
		delay time.Duration
		next  time.Time
	}
)

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

	// failed holds the replicas whose last repair failed. Each sweep
	// rebuilds it from the replicas it finds lagging, so a replica that
	// became level another way (its lagging collection dropped, a direct
	// ResyncReplica) forgets its delay, and its next lag is repaired on
	// the next sweep.
	failed := make(map[replicaKey]backoff)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		now := time.Now()
		still := make(map[replicaKey]backoff)
		for _, lag := range s.shards.OutOfSyncReplicas() {
			k := replicaKey{lag.Shard, lag.Replica}
			b, ok := failed[k]
			if ok && now.Before(b.next) {
				still[k] = b
				continue
			}
			if _, err := s.shards.ResyncReplica(ctx, lag.Shard, lag.Replica); err == nil || !repairBackoff {
				continue
			}
			// Exponential backoff with jitter: double the delay (from one
			// interval) and scatter attempts across [1x, 1.5x] so replicas
			// failing in lockstep don't retry in lockstep.
			b.delay = min(max(2*b.delay, interval), resyncBackoffMax)
			b.next = now.Add(b.delay + repairJitter(b.delay))
			still[k] = b
		}
		failed = still
	}
}
