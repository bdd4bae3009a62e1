package service

// The anti-entropy loop: the service-side driver that turns
// core.Sharded's replica re-sync into self-healing. Every
// ResyncInterval it sweeps the out-of-sync list — the replicas whose row
// counts differ from their primaries', after a missed append or a
// restart alike — and repairs each via ResyncReplica. A replica whose
// repair fails (injected resync-error faults, real storage trouble) is
// tried again on the next sweep, like any other lagging replica, so a
// healed replica is repaired within one interval of its fault clearing.
// A failed attempt is cheap: the replica keeps the prefix a repair
// verified, so a retry re-checks only rows it gained since, and the
// check runs outside the append lock. The loop owns no correctness:
// ResyncReplica is safe to call at any time and appends only to a
// verified prefix.

import (
	"context"
	"time"
)

// defaultResyncInterval is the anti-entropy sweep cadence when
// Config.ResyncInterval is zero. TestRepairWedge picks it: the largest
// of 100, 200 and 400 ms whose clear-to-/readyz is at most 250 ms after
// a wedge that clears just after a sweep (199.75 ms; 400 ms reads
// 399.75 ms).
const defaultResyncInterval = 200 * time.Millisecond

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

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		for _, lag := range s.shards.OutOfSyncReplicas() {
			// A failed repair leaves the replica lagging, and the next
			// sweep retries it.
			_, _ = s.shards.ResyncReplica(ctx, lag.Shard, lag.Replica)
		}
	}
}
