package service

// Adaptive shard-aware admission: the cost-classed gate that replaced
// the fixed-depth FIFO. Every request is classified (filter / join /
// knn / infer / append) and priced in estimated seconds before it may
// enter the worker queue:
//
//   - The per-class estimate is an EWMA of observed service times,
//     seeded with plan-model priors so a cold service still
//     discriminates a 50ms similarity join from a 2ms point filter.
//   - Scattered queries are floored at the live widest-fragment p99
//     (the same histogram the hedger derives its budget from): a
//     scatter's wall time is its slowest fragment.
//   - Cacheable requests are discounted by their collection's observed
//     cache hit rate via core.CostModel.CacheAwareCost — a family that
//     hits 90% of the time amortizes this one execution across the
//     hits it will serve, so it sheds last.
//
// The queue's effective depth adapts to the observed drain rate:
// holding more work than the pool can drain within targetQueueDelay
// only manufactures queue-wait, so beyond that point expensive
// requests (priced at or above expensiveCostFloorSec) are shed with a
// cost-aware Retry-After while cheap ones still admit. A physically
// full channel rejects everything — the hard limit the soft watermark
// approaches under slowdown. Appends never enter the worker queue
// (they commit inline on the caller's goroutine) but pass the same
// gate via a concurrency cap, so a write burst backpressures at the
// door instead of starving reads — and can never deadlock behind them.

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Admission classes: every request maps to exactly one.
const (
	classFilter = "filter"
	classJoin   = "join"
	classKNN    = "knn"
	classInfer  = "infer"
	classAppend = "append"
)

// classSeeds are the cold-start per-class service-time priors, in
// seconds (plan-model orders of magnitude; replaced by observation).
var classSeeds = map[string]float64{
	classFilter: 2e-3,
	classJoin:   50e-3,
	classKNN:    5e-3,
	classInfer:  200e-3,
	classAppend: 2e-3,
}

const (
	// ewmaAlpha weights new service-time observations.
	ewmaAlpha = 0.2
	// targetQueueDelay caps how much queue-wait the adaptive depth is
	// willing to manufacture: effective depth = drain rate x this.
	targetQueueDelay = 250 * time.Millisecond
	// expensiveCostFloorSec is the priced cost at or above which a
	// request is sheddable once the queue crosses its effective depth.
	expensiveCostFloorSec = 25e-3
	// retryAfterMin/Max clamp the cost-aware Retry-After hint.
	retryAfterMin = 1 * time.Second
	retryAfterMax = 60 * time.Second
)

// OverloadError is the typed admission rejection: it unwraps to
// ErrOverloaded (so errors.Is keeps working) and carries the class and
// cost-aware Retry-After the HTTP layer surfaces.
type OverloadError struct {
	// RetryAfter estimates when the backlog will have drained enough to
	// admit this class of request.
	RetryAfter time.Duration
	// Class is the admission class of the rejected request.
	Class string
	// Shed distinguishes a cost-based shed at the adaptive watermark
	// (expensive request, queue still physically has room) from a hard
	// queue-full rejection.
	Shed bool
}

func (e *OverloadError) Error() string {
	kind := "queue full"
	if e.Shed {
		kind = "expensive request shed"
	}
	return fmt.Sprintf("service: admission rejected %s request (%s), retry after %s",
		e.Class, kind, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// admission holds the adaptive gate's learned state. One per Service.
type admission struct {
	workers   int
	hardDepth int // cap(queue): the physical bound

	mu       sync.Mutex
	classEst map[string]float64 // class -> EWMA service seconds
	svcEWMA  float64            // all-class EWMA task service seconds
	svcSeen  bool               // any observation yet (else seeds only)

	queuedCost float64 // summed priced cost of tasks now queued
	appending  int     // appends currently committing inline
}

func newAdmission(workers, depth int) *admission {
	est := make(map[string]float64, len(classSeeds))
	for c, s := range classSeeds {
		est[c] = s
	}
	return &admission{workers: workers, hardDepth: depth, classEst: est}
}

// classOf maps a query request to its admission class.
func classOf(req *Request) string {
	switch {
	case req.Infer != nil:
		return classInfer
	case req.KNN != nil:
		return classKNN
	case req.SimJoin != nil:
		return classJoin
	default:
		return classFilter
	}
}

// observe folds one completed request's service time into its class
// estimator.
func (a *admission) observe(class string, d time.Duration) {
	sec := d.Seconds()
	a.mu.Lock()
	defer a.mu.Unlock()
	if est, ok := a.classEst[class]; ok {
		a.classEst[class] = est + ewmaAlpha*(sec-est)
	} else {
		a.classEst[class] = sec
	}
}

// observeDrain folds one worker-queue task's service time into the
// drain estimator (inline appends are excluded: they never occupy the
// queue, so they must not inflate its apparent drain rate).
func (a *admission) observeDrain(d time.Duration) {
	sec := d.Seconds()
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.svcSeen {
		a.svcEWMA, a.svcSeen = sec, true
	} else {
		a.svcEWMA += ewmaAlpha * (sec - a.svcEWMA)
	}
}

// estimate returns the current expected service seconds for a class.
func (a *admission) estimate(class string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.classEst[class]
}

// effectiveDepth is the adaptive queue bound: the deepest backlog the
// pool can drain within targetQueueDelay at the observed service rate,
// clamped to [workers, hardDepth]. Before any observation it is the
// hard depth (no evidence to shrink on).
func (a *admission) effectiveDepth() int {
	a.mu.Lock()
	svc, seen := a.svcEWMA, a.svcSeen
	a.mu.Unlock()
	if !seen || svc <= 0 {
		return a.hardDepth
	}
	depth := int(targetQueueDelay.Seconds() / svc * float64(a.workers))
	if depth < a.workers {
		depth = a.workers
	}
	if depth > a.hardDepth {
		depth = a.hardDepth
	}
	return depth
}

// retryAfter estimates the backlog drain time for a rejection: how long
// until `queued` tasks of the observed mean cost clear the pool,
// clamped to [retryAfterMin, retryAfterMax] whole seconds.
func (a *admission) retryAfter(queued int) time.Duration {
	a.mu.Lock()
	svc := a.svcEWMA
	a.mu.Unlock()
	if svc <= 0 {
		svc = classSeeds[classFilter]
	}
	d := time.Duration(float64(queued+1) * svc / float64(a.workers) * float64(time.Second))
	d = d.Round(time.Second)
	if d < retryAfterMin {
		d = retryAfterMin
	}
	if d > retryAfterMax {
		d = retryAfterMax
	}
	return d
}

// noteQueued/noteDequeued maintain the queued-cost gauge.
func (a *admission) noteQueued(cost float64) {
	a.mu.Lock()
	a.queuedCost += cost
	a.mu.Unlock()
}

func (a *admission) noteDequeued(cost float64) {
	a.mu.Lock()
	a.queuedCost -= cost
	if a.queuedCost < 0 {
		a.queuedCost = 0 // float drift guard
	}
	a.mu.Unlock()
}

// QueuedCostSec is the summed priced cost (estimated seconds of work)
// of everything currently in the admission queue — the gauge /metrics
// exports.
func (a *admission) QueuedCostSec() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queuedCost
}

// appendLimit bounds concurrent inline append commits: enough to keep
// the storage layer busy, few enough that a write flood queues at the
// client instead of monopolizing the process.
func (a *admission) appendLimit() int {
	n := a.workers
	if n < 2 {
		n = 2
	}
	return n
}

// admitAppend claims an inline-append slot, or rejects with a
// cost-aware OverloadError when the write gate is saturated. The
// returned release must be called when the commit finishes. Appends
// never block: a full gate rejects immediately, so a write burst can
// never deadlock behind queued reads.
func (a *admission) admitAppend() (release func(), err error) {
	a.mu.Lock()
	limit := a.appendLimit()
	if a.appending >= limit {
		waiting := a.appending
		est := a.classEst[classAppend]
		a.mu.Unlock()
		if est <= 0 {
			est = classSeeds[classAppend]
		}
		d := time.Duration(float64(waiting) * est * float64(time.Second)).Round(time.Second)
		if d < retryAfterMin {
			d = retryAfterMin
		}
		if d > retryAfterMax {
			d = retryAfterMax
		}
		return nil, &OverloadError{RetryAfter: d, Class: classAppend, Shed: true}
	}
	a.appending++
	a.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.appending--
			a.mu.Unlock()
		})
	}, nil
}

// priceQuery estimates a query's cost in seconds at admission time.
// The class EWMA is the base; collection queries that fan out over more
// than one shard are floored at the live widest-fragment p99 (a scatter
// waits for its slowest fragment; a single fragment is already what the
// class EWMA measures); cacheable requests are discounted by their family's
// observed hit rate (the execution is amortized over the hits the
// cached result will serve).
func (s *Service) priceQuery(req *Request, key string) (class string, cost float64) {
	class = classOf(req)
	est := s.adm.estimate(class)
	if s.shards.NumShards() > 1 && req.Infer == nil {
		if p99, ok := s.fragmentP99(); ok && p99 > est {
			est = p99
		}
	}
	cost = est
	if key != "" {
		hitRate := s.results.FamilyHitRate("q:" + req.Collection + ":")
		cost = s.cost.CacheAwareCost(est, hitRate, cacheLookupCostSec)
	}
	return class, cost
}

// fragmentP99 returns the live widest-fragment latency once enough
// fragments have been observed to trust it (the hedger's threshold).
func (s *Service) fragmentP99() (float64, bool) {
	if s.tel.fragmentDur.Count() < hedgeMinSamples {
		return 0, false
	}
	p99 := s.tel.fragmentDur.Quantile(0.99)
	if math.IsNaN(p99) || p99 <= 0 {
		return 0, false
	}
	return p99, true
}
