// Package service is DeepLens's concurrent query-serving subsystem: a
// thread-safe, embeddable layer that wraps the catalog, cost-based
// optimizer and execution devices behind a Service type. It adds what a
// single-caller library lacks for production traffic:
//
//   - a bounded worker pool with an admission queue, so N concurrent
//     callers execute plans in parallel without oversubscribing the
//     simulated devices (each device sits behind a kernel-coalescing
//     exec.Batcher; with Config.Devices below Workers, several workers
//     share one device and the batcher fuses their kernels into one
//     launch, amortizing GPU launch overhead across requests);
//   - an LRU result cache keyed by a canonical plan fingerprint
//     (dataset version + operator tree + parameters) with byte
//     accounting and hit/miss/eviction metrics;
//   - a UDF materialization cache memoizing per-frame inference outputs
//     (detect/embed/ocr), the paper's core argument applied across
//     queries: inference is computed once, reused forever;
//   - in-flight request coalescing (identical cold queries run once);
//   - cache-aware plan costing: reported costs fold in the observed hit
//     rate via core.CacheAwareCost;
//   - one scatter-gather executor over a horizontally partitioned
//     backend (NewSharded over core.Sharded; New serves a plain DB as
//     its one-shard case): the plan is made once, its fragment runs on
//     every shard in parallel on batcher-fronted devices, and partial
//     results merge at the service layer — counts sum, ordered top-k
//     rows merge best head first, similarity joins fan out one task per
//     shard pair and re-cluster at the gather stage.
//
// The cmd/deeplens-serve binary exposes it over HTTP JSON.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/vision"
)

// Service errors.
var (
	// ErrOverloaded reports admission-queue overflow, or a saturated
	// append gate: the caller should back off and retry (HTTP 429).
	ErrOverloaded = errors.New("service: admission queue full")
	// errAppendGateFull is the append gate's ErrOverloaded.
	errAppendGateFull = fmt.Errorf("%w: append gate saturated", ErrOverloaded)
	// ErrClosed reports a query against a closed service.
	ErrClosed = errors.New("service: closed")
	// ErrQueryTimeout reports a query that exceeded the server-side
	// deadline (Config.QueryTimeout or the request's TimeoutMS): the
	// result was abandoned, the caller may retry (HTTP 504). Client
	// cancellation is NOT mapped here — a caller that gave up keeps its
	// own context error.
	ErrQueryTimeout = errors.New("service: query deadline exceeded")
)

// DefaultModelSeed fixes UDF model weights when Config.ModelSeed is zero
// (matches the benchmark environment's seed).
const DefaultModelSeed = 42

// FrameSource renders frames for inference sweeps. Implementations must
// be safe for concurrent use (the dataset generators render
// deterministically from immutable scene state).
type FrameSource interface {
	// Frames returns the number of renderable frames.
	Frames() int
	// Render draws frame t.
	Render(t int) (*codec.Image, error)
}

// Config parameterizes a Service. Zero values select sensible defaults.
type Config struct {
	// Workers is the executor pool size (default: min(NumCPU, 16)).
	Workers int
	// QueueDepth bounds the admission queue beyond the workers
	// (default 64). A full queue rejects with ErrOverloaded.
	QueueDepth int
	// Device is the execution backend kind (default CPU).
	Device exec.Kind
	// Devices sets how many devices the service creates (default: one
	// per worker). Each device sits behind one kernel-coalescing
	// exec.Batcher, and workers are assigned to devices round-robin.
	// Setting Devices below Workers shares each device among several
	// workers, whose concurrent GEMM/pairwise kernels fuse into one
	// launch — the cross-request analog of within-query batching,
	// amortizing the simulated GPU's launch overhead. A batch launches
	// when it holds as many kernels as its device has workers (over N
	// shards, N per worker, capped at 16), when its 50µs window expires,
	// or as soon as every mid-query submitter is blocked and the
	// admission queue is empty. Devices is at most Workers per shard, and
	// at most Workers + N(N+1)/2 - 1 over N shards: the devices a
	// query's scatter tasks are placed on.
	// Fusion buys nothing on CPU/AVX (the batcher passes through).
	Devices int
	// ResultCacheBytes budgets the plan-keyed result cache (default 32 MiB).
	ResultCacheBytes int64
	// UDFCacheBytes budgets the inference materialization cache
	// (default 128 MiB).
	UDFCacheBytes int64
	// ModelSeed fixes UDF weights (default DefaultModelSeed).
	ModelSeed int64
	// SlowQueryThreshold records queries at or over this duration in the
	// in-memory slow-query log served at /debug/slow (default 250ms;
	// negative disables the log).
	SlowQueryThreshold time.Duration
	// TraceSample captures full span traces for this fraction of
	// queries even without an explicit "trace": true request (0 = only
	// explicit traces; 1 = every query). Sampled traces feed the
	// slow-query log; explicit traces are additionally returned on the
	// response.
	TraceSample float64
	// QueryTimeout bounds each query's wall time server-side (0 = no
	// deadline, today's behavior; a request's timeout_ms overrides).
	// An exceeded deadline fails the query with ErrQueryTimeout
	// (HTTP 504) — unless the request set allow_partial, in which case
	// fragments are cut slightly early and the shards that made it in
	// time still answer.
	QueryTimeout time.Duration
	// HedgeAfter is how long a scatter fragment attempt may run before
	// the fragment is hedged to another in-sync replica (first response
	// wins, loser canceled). Default 25ms; negative disables hedging.
	// Only effective with > 1 replica.
	HedgeAfter time.Duration
	// ResyncInterval is the anti-entropy sweep cadence: how often the
	// background repair loop checks for replicas behind their primary
	// and re-syncs them (default 200ms; negative disables the loop).
	// A replica whose repair fails is tried again on the next sweep, so
	// a healed replica is repaired within one interval of its fault
	// clearing.
	// Only effective with a replicated sharded backend.
	ResyncInterval time.Duration
	// Faults arms the deterministic fault-injection failpoints in the
	// scatter/append/resync paths (chaos tests, `deeplens-serve -fault`).
	// Zero value: no faults.
	Faults fault.Config
	// ColumnMemBudget enables the tiered column store: sealed column
	// segments keep a compressed encoding in memory and at most this many
	// bytes of them stay decoded (evicted beyond it and decoded again on
	// demand; zone maps and null summaries always stay decoded, so pruned
	// scans never decode cold segments). Results are byte-identical to
	// the in-memory store at any budget. 0 or negative (default) keeps
	// every segment decoded, with no encoding.
	ColumnMemBudget int64
}

// withDefaults resolves zero values. shards is the backing partition
// count: it raises the device ceiling, since a scattered query runs up
// to one kernel-submitting fragment per shard per worker.
func (c Config) withDefaults(shards int) Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
		if c.Workers > 16 {
			c.Workers = 16
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	// Worker w's scatter task t runs on device (w+t) mod Devices (see
	// placeDev), and a query has at most N(N+1)/2 tasks, one join task
	// per shard pair: a device past the last (w, t) reaches would never
	// run a kernel.
	maxDevices := min(c.Workers*shards, c.Workers+shards*(shards+1)/2-1)
	if c.Devices <= 0 {
		c.Devices = c.Workers
	}
	if c.Devices > maxDevices {
		c.Devices = maxDevices
	}
	if c.ResultCacheBytes <= 0 {
		c.ResultCacheBytes = 32 << 20
	}
	if c.UDFCacheBytes <= 0 {
		c.UDFCacheBytes = 128 << 20
	}
	if c.ModelSeed == 0 {
		c.ModelSeed = DefaultModelSeed
	}
	switch {
	case c.SlowQueryThreshold == 0:
		c.SlowQueryThreshold = 250 * time.Millisecond
	case c.SlowQueryThreshold < 0:
		c.SlowQueryThreshold = 0 // slow log disabled
	}
	switch {
	case c.HedgeAfter == 0:
		c.HedgeAfter = 25 * time.Millisecond
	case c.HedgeAfter < 0:
		c.HedgeAfter = 0 // hedging disabled
	}
	switch {
	case c.ResyncInterval == 0:
		c.ResyncInterval = defaultResyncInterval
	case c.ResyncInterval < 0:
		c.ResyncInterval = 0 // anti-entropy loop disabled
	}
	return c
}

// task is one admitted query awaiting a worker.
type task struct {
	ctx context.Context
	req *Request
	enq time.Time // admission time (queue-wait telemetry)
	fl  *flight   // the outcome, published by the worker that runs the task
}

// flight is one task's outcome. A cacheable task's flight is registered
// under its result-cache key until it lands, and identical cold queries
// coalesce on it.
type flight struct {
	key     string // result-cache key ("" = uncacheable, not registered)
	version uint64 // the dataset version key was computed at
	done    chan struct{}
	resp    *Response
	err     error
}

// worker is one executor: a (possibly shared, batcher-fronted) device
// plus memoized UDF models bound to it.
type worker struct {
	id  int
	dev *exec.Batcher // kernel scheduler over the worker's device
	det *vision.MemoDetector
	emb *vision.MemoEmbedder
	ocr *vision.MemoOCR
}

// Service is the concurrent query-serving layer over a sharded set of
// DBs (scatter-gather execution; see NewSharded) — a single DB being
// the one-shard case (see New).
type Service struct {
	shards *core.Sharded // the backend; New wraps its DB as one shard
	cfg    Config
	start  time.Time

	results *Cache // plan fingerprint -> *Response
	udfMemo *Cache // image key -> inference output

	batchers []*exec.Batcher // one kernel scheduler per device
	queue    chan *task
	quit     chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool

	srcMu   sync.RWMutex
	sources map[string]registeredSource
	srcGen  uint64 // registrations so far; guarded by srcMu

	flightMu sync.Mutex
	inflight map[string]*flight

	// tel owns the metrics registry (the serving counters live there as
	// registry-backed obs.Counters), the slow-query log, and the trace
	// sampler; /metrics and /stats read the same source.
	tel *telemetry

	// inj evaluates the armed fault-injection failpoints on the scatter
	// and join paths (nil = disabled, one pointer compare per site).
	inj *fault.Injector

	// appendSlots is the append gate: one token per inline append
	// commit in progress, max(2, Workers) at most.
	appendSlots chan struct{}

	// segCache is the tiered column store's byte-budgeted residency
	// cache, installed on every backing DB when Config.ColumnMemBudget
	// enables tiering (nil otherwise). Stats reads its spill, load and
	// eviction counters.
	segCache *core.SegmentCache

	inFlight, peakInFlight atomic.Int64

	// statsMu makes (queue depth, in-flight count) observable as one
	// consistent pair: enqueue/dequeue update the in-flight counter while
	// holding it, and Stats reads both under it. Without this, /stats or
	// /metrics could report a task as neither queued nor in flight (or
	// both).
	statsMu sync.Mutex

	mergeNS atomic.Int64 // cumulative scatter gather/merge wall time
}

// New starts a service over db with cfg.Workers executors. Close releases
// the pool. db is served as a one-shard partitioned database: the same
// scatter-gather pipeline NewSharded runs, at fan-out 1, where the
// fragment is the whole plan and runs inline on the worker. The service
// reads db through that wrapper but never closes it.
func New(db *core.DB, cfg Config) (*Service, error) {
	if db == nil {
		return nil, errors.New("service: nil db")
	}
	return buildService(core.WrapSharded(db), cfg)
}

// NewSharded starts a service over a horizontally partitioned database.
// Collection queries execute scatter-gather: the plan is made once, its
// fragment runs on every shard in parallel, join tasks pinned to
// batcher-fronted devices so sharding composes with cross-request
// kernel fusion, and the partial results merge at the service layer
// (concatenation for filters, a k-way merge for ordered top-k,
// re-clustering for distinct, pairwise cross-shard tasks for similarity
// joins).
func NewSharded(sdb *core.Sharded, cfg Config) (*Service, error) {
	if sdb == nil || sdb.NumShards() < 1 {
		return nil, errors.New("service: nil or empty sharded db")
	}
	return buildService(sdb, cfg)
}

func buildService(sdb *core.Sharded, cfg Config) (*Service, error) {
	nshards := sdb.NumShards()
	cfg = cfg.withDefaults(nshards)
	s := &Service{
		shards:   sdb,
		cfg:      cfg,
		start:    time.Now(),
		results:  NewCache(cfg.ResultCacheBytes),
		udfMemo:  NewCache(cfg.UDFCacheBytes),
		queue:    make(chan *task, cfg.QueueDepth),
		quit:     make(chan struct{}),
		sources:  make(map[string]registeredSource),
		inflight: make(map[string]*flight),
	}
	s.inj = fault.New(cfg.Faults)
	sdb.SetFaults(s.inj)
	// Tiered columns: one segment cache across every backing DB, so the
	// budget bounds total column residency service-wide.
	if cfg.ColumnMemBudget > 0 {
		s.segCache = core.NewSegmentCache(cfg.ColumnMemBudget)
		sdb.SetSegmentCache(s.segCache)
	}
	s.appendSlots = make(chan struct{}, max(2, cfg.Workers))
	s.tel = newTelemetry(s, cfg)
	// One device per batcher for the service's lifetime; workers are
	// assigned round-robin, so with fewer devices than workers the
	// co-resident workers' kernels fuse. Admitted-but-unclaimed tasks
	// become submitters the moment a worker dequeues them: the idle probe
	// holds partial batches while the queue is non-empty so imminent
	// kernels can still fuse.
	idle := func() bool { return len(s.queue) == 0 }
	s.batchers = make([]*exec.Batcher, cfg.Devices)
	for i, n := range deviceBounds(cfg.Workers, cfg.Devices, nshards) {
		s.batchers[i] = exec.NewBatcher(exec.New(cfg.Device), n, idle)
	}
	ns := fmt.Sprintf("seed%d", cfg.ModelSeed)
	for i := 0; i < cfg.Workers; i++ {
		dev := s.batchers[placeDev(i, 0, cfg.Devices)]
		w := &worker{
			id:  i,
			dev: dev,
			det: vision.NewMemoDetector(vision.NewDetector(dev, cfg.ModelSeed), ns, s.udfMemo),
			emb: vision.NewMemoEmbedder(vision.NewEmbedder(dev, cfg.ModelSeed), ns, s.udfMemo),
			ocr: vision.NewMemoOCR(vision.NewDocumentOCR(), "doc", s.udfMemo),
		}
		s.wg.Add(1)
		go s.run(w)
	}
	// Self-healing: with replicated shards, the anti-entropy loop
	// repairs lagging replicas in the background so a fault's blast
	// radius is one repair interval of reduced hedge headroom, not a
	// restart.
	if sdb.Replicas() > 1 && cfg.ResyncInterval > 0 {
		s.wg.Add(1)
		go s.runAntiEntropy(cfg.ResyncInterval)
	}
	return s, nil
}

// deviceBounds gives each device's batch bound: a batch that holds that
// many kernels launches without waiting out its window. At one shard it
// is the device's worker count, every submitter that can block there. At
// N shards it is N per worker, spread over the devices and capped at 16:
// a join places up to N(N+1)/2 submitters per worker, but
// internal/exec's TestBatchBoundSweep found that bound loses mean task
// time at 2 workers on 20 of 20 seeds. It never exceeds the submitters
// the join tasks place on the device, so a size flush can always fire.
func deviceBounds(workers, devices, shards int) []int {
	bounds := make([]int, devices)
	if shards == 1 {
		for w := range workers {
			bounds[placeDev(w, 0, devices)]++
		}
		return bounds
	}
	for w := range workers {
		for t := range shards * (shards + 1) / 2 {
			bounds[placeDev(w, t, devices)]++
		}
	}
	for i := range bounds {
		bounds[i] = min((workers*shards+devices-1)/devices, 16, bounds[i])
	}
	return bounds
}

// Close stops the workers and background loops. In-flight waiters
// receive ErrClosed.
func (s *Service) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.quit)
	s.wg.Wait()
}

// registeredSource is a frame source with its registration's
// generation, which versions the sweeps cached over it.
type registeredSource struct {
	src FrameSource
	gen uint64
}

// RegisterSource makes a frame source available to inference sweeps
// under the given name. Registering a name again replaces its source,
// and sweeps cached over the old one no longer hit.
func (s *Service) RegisterSource(name string, src FrameSource) {
	s.srcMu.Lock()
	s.srcGen++
	s.sources[name] = registeredSource{src: src, gen: s.srcGen}
	s.srcMu.Unlock()
}

// source returns the named frame source and its registration's
// generation (nil and 0 when none is registered).
func (s *Service) source(name string) (FrameSource, uint64) {
	s.srcMu.RLock()
	defer s.srcMu.RUnlock()
	rs := s.sources[name]
	return rs.src, rs.gen
}

// InvalidateCollection eagerly drops cached results over the named
// collection (or source). Version-keyed fingerprints already make stale
// hits impossible after re-ingest; this reclaims the bytes immediately.
func (s *Service) InvalidateCollection(name string) int {
	return s.results.InvalidatePrefix("q:" + name + ":")
}

// FlushCaches empties both caches (benchmark cold starts).
func (s *Service) FlushCaches() {
	s.results.Flush()
	s.udfMemo.Flush()
}

// versionOf is the dataset version the request's cache key folds in:
// the collection's version for queries, the source's registration
// generation for sweeps.
func (s *Service) versionOf(req *Request) (uint64, error) {
	if req.Infer != nil {
		_, gen := s.source(req.Infer.Source)
		return gen, nil
	}
	scol, err := s.shards.Collection(req.Collection)
	if err != nil {
		return 0, err
	}
	// The composite version folds every shard's version (and is the
	// shard's own at one shard), so a write to any shard invalidates.
	return scol.Version(), nil
}

// keyScratch is the room a cache key is built in on the stack: a
// filter request's fingerprint tokens fit, a knn query vector's may
// not.
const keyScratch = 512

// Query executes one request: result-cache lookup, in-flight coalescing,
// bounded admission, parallel execution on a worker's device. It blocks
// until the result is ready, ctx is done, or the service closes.
func (s *Service) Query(ctx context.Context, req Request) (*Response, error) {
	resp, t, err := s.query(ctx, &req)
	if t.hit { // a caller-private copy, sharing the rows and wire memo
		out := *resp
		t.apply(&out)
		resp = &out
	}
	return resp, err
}

// query is Query over a request the caller may reuse once it returns:
// every task it queues runs on a clone. A hit, from the cache or an
// identical flight, returns the shared response, which the caller must
// not modify, with the hitTail to deliver it with.
func (s *Service) query(ctx context.Context, req *Request) (*Response, hitTail, error) {
	if s.closed.Load() {
		return nil, hitTail{}, ErrClosed
	}
	if err := req.validate(); err != nil {
		return nil, hitTail{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Server-side deadline: Config.QueryTimeout, overridable per request.
	// Exceeding it surfaces as ErrQueryTimeout (HTTP 504) — but only when
	// the caller's own context is still live, so a client that hung up
	// keeps its own cancellation error.
	parent := ctx
	timeout := s.cfg.QueryTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	// tr is nil for untraced queries; every span operation on it is a
	// no-op branch, keeping the hot path's instrumentation cost at two
	// clock reads plus one histogram observe.
	tr := s.tel.startTrace(req)
	req.tr = tr
	plan := tr.Begin("plan")
	resp, t, err := s.resolve(ctx, req, plan)
	if err != nil {
		if timeout > 0 && parent.Err() == nil &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded)) {
			return nil, t, ErrQueryTimeout
		}
		return nil, t, err
	}
	plan.Attr("plan", resp.Plan)
	out := s.tel.finishQuery(resp, req, tr, time.Since(start))
	if t.hit && req.Trace {
		t.apply(out) // finishQuery's private copy
		t = hitTail{}
	}
	return out, t, nil
}

// resolve answers req from the result cache or an identical in-flight
// execution, both shared and delivered as hits, or a new one. The plan
// span ends once the path is chosen.
func (s *Service) resolve(ctx context.Context, req *Request, plan *obs.SpanHandle) (*Response, hitTail, error) {
	if req.NoCache {
		plan.Attr("cache", "bypass").End()
		resp, err := s.admit(ctx, req, &flight{done: make(chan struct{})})
		return resp, hitTail{}, err
	}
	version, err := s.versionOf(req)
	if err != nil {
		plan.End()
		return nil, hitTail{}, err
	}
	// A hit probes the cache with the key's bytes; the key string is made
	// only for a miss, which registers and stores under it.
	var scratch [keyScratch]byte
	kb := req.appendKey(scratch[:0], version, s.cfg.ModelSeed)
	key := ""
	for {
		if v, ok := s.results.GetBytes(kb); ok {
			plan.Attr("cache", "hit").End()
			return v.(*Response), s.hitTail(v.(*Response)), nil
		}
		if key == "" {
			key = string(kb)
		}
		// Coalesce identical cold queries onto one execution.
		s.flightMu.Lock()
		fl, joined := s.inflight[key]
		if !joined {
			fl = &flight{key: key, version: version, done: make(chan struct{})}
			s.inflight[key] = fl
		}
		s.flightMu.Unlock()
		if !joined {
			plan.Attr("cache", "miss").End()
			// A leader that gives up stops waiting; the worker still
			// publishes the flight to its waiters.
			resp, err := s.admit(ctx, req, fl)
			return resp, hitTail{}, err
		}
		s.tel.coalesced.Inc()
		plan.Attr("cache", "coalesced").End()
		resp, err := s.await(ctx, fl)
		if err == nil {
			return resp, s.hitTail(resp), nil
		}
		// The flight ran under its leader's context and failed on it (the
		// leader hung up or hit its deadline). This waiter's own context is
		// live, so it looks the key up again: a cache hit, a newer flight,
		// or its own execution.
		if ctx.Err() != nil || !(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return nil, hitTail{}, err
		}
	}
}

// finish publishes a flight's outcome exactly once, unregistering a
// cacheable one first so later identical queries no longer join it.
func (s *Service) finish(fl *flight, resp *Response, err error) {
	fl.resp, fl.err = resp, err
	if fl.key != "" {
		s.flightMu.Lock()
		delete(s.inflight, fl.key)
		s.flightMu.Unlock()
	}
	close(fl.done)
}

// tryAppendSlot claims a slot in the append gate without blocking and
// reports whether it got one; releaseAppendSlot frees it.
func (s *Service) tryAppendSlot() bool {
	select {
	case s.appendSlots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Service) releaseAppendSlot() { <-s.appendSlots }

// admit places a task publishing to fl on the worker queue and waits
// for the outcome. Admission is a FIFO of Config.QueueDepth: a full
// queue rejects the task with ErrOverloaded, published to fl as well.
func (s *Service) admit(ctx context.Context, req *Request, fl *flight) (*Response, error) {
	// The task may outlive the caller, whose request a pooled decoder
	// reuses once the handler returns: the task runs on its own copy.
	t := &task{ctx: ctx, req: req.clone(), enq: time.Now(), fl: fl}
	// The queue send and the in-flight increment happen under statsMu so
	// Stats observes them as one event (a task is never visible in the
	// queue without being counted in flight, or vice versa).
	s.statsMu.Lock()
	select {
	case s.queue <- t:
		n := s.inFlight.Add(1)
		s.statsMu.Unlock()
		for {
			peak := s.peakInFlight.Load()
			if n <= peak || s.peakInFlight.CompareAndSwap(peak, n) {
				break
			}
		}
		s.tel.admitted.Inc()
	default:
		s.statsMu.Unlock()
		s.tel.rejected.Inc()
		s.finish(fl, nil, ErrOverloaded)
		return nil, ErrOverloaded
	}
	return s.await(ctx, fl)
}

// await blocks until fl lands, ctx is done, or the service closes.
func (s *Service) await(ctx context.Context, fl *flight) (*Response, error) {
	select {
	case <-fl.done:
		return fl.resp, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.quit:
		return nil, ErrClosed
	}
}

// run is a worker's executor loop over its (possibly shared) batcher.
func (s *Service) run(w *worker) {
	defer s.wg.Done()
	for {
		select {
		case t := <-s.queue:
			s.process(w, t)
		case <-s.quit:
			return
		}
	}
}

// process runs one task and publishes its outcome to the task's flight.
func (s *Service) process(w *worker, t *task) {
	defer func() {
		s.statsMu.Lock()
		s.inFlight.Add(-1)
		s.statsMu.Unlock()
	}()
	resp, err := s.runTask(w, t)
	if err != nil {
		s.tel.failed.Inc()
	} else {
		s.tel.completed.Inc()
	}
	s.finish(t.fl, resp, err)
}

// runTask executes one task and caches a cacheable result.
func (s *Service) runTask(w *worker, t *task) (*Response, error) {
	// A task runs under its caller's context, so once that is done every
	// execute path fails on it before any work: return at once, opening
	// no span and touching no store. Coalesced waiters of a cacheable
	// task see the context error and look the key up again.
	if err := t.ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	wait := start.Sub(t.enq)
	s.tel.queueWait.Observe(wait.Seconds())
	tr := t.req.tr
	tr.AddSpan("queue", t.enq, wait, nil)
	ex := tr.Begin("execute")
	resp, err := s.execute(t.ctx, w, t.req)
	if err != nil {
		ex.End()
		return nil, err
	}
	ex.AttrInt("worker", int64(w.id)).End()
	ex.Attr("plan", resp.Plan)
	resp.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	// The key names the dataset version it was computed at, which the
	// flight records; the fragments snapshotted later. If an append
	// landed in between, the response may hold rows newer than its key:
	// still a correct answer, but not that key's — it goes out like a
	// no_cache response, unnamed and uncached. The cache-store span times
	// this check along with the insertion.
	key := t.fl.key
	var cs *obs.SpanHandle
	if key != "" {
		cs = tr.Begin("cache-store")
		if cur, err := s.versionOf(t.req); err != nil || cur != t.fl.version {
			key = ""
		}
	}
	resp.Fingerprint = key
	resp.CacheAwareCostSec = core.CacheAwareCost(
		resp.EstCostSec, s.results.Stats().HitRate(), cacheLookupCostSec)
	// Degraded (partial) responses are never cached: the missing shards
	// may be back for the very next query, and a cached partial answer
	// would keep serving under a fingerprint that promises the full one.
	if key != "" && !resp.Degraded {
		resp.wire = &wireMemo{cache: s.results, key: key, entry: resp}
		s.results.Put(key, resp, resp.sizeBytes())
	}
	cs.End()
	return resp, nil
}

// cacheLookupCostSec is the measured order-of-magnitude cost of one
// result-cache probe (fingerprint + map + LRU bump).
const cacheLookupCostSec = 2e-6

// hitTail is what a hit on a shared response delivers in place of its
// own cache_hit, cache_aware_cost_sec and duration_ms: true, costSec and
// 0. The zero hitTail delivers the response's own.
type hitTail struct {
	hit     bool
	costSec float64
}

// hitTail is a hit on r, re-costed at the current hit rate.
func (s *Service) hitTail(r *Response) hitTail {
	return hitTail{true, core.CacheAwareCost(r.EstCostSec, s.results.Stats().HitRate(), cacheLookupCostSec)}
}

// apply sets t's fields on a response private to the caller.
func (t hitTail) apply(r *Response) {
	r.CacheHit, r.CacheAwareCostSec, r.DurationMS = true, t.costSec, 0
}

// ---------------------------------------------------------- execution ----

func (s *Service) execute(ctx context.Context, w *worker, req *Request) (*Response, error) {
	if req.Infer != nil {
		// The sweep may submit kernels for the whole request: register as
		// a mid-query submitter so the batcher's idle flush knows when the
		// device has gone quiet.
		w.dev.BeginSubmitter()
		defer w.dev.EndSubmitter()
		return s.executeInfer(ctx, w, req.Infer)
	}
	return s.executeScatter(ctx, w, req)
}

// maxRows caps projected row output per response.
const maxRows = 100

// estInferPerFrameSec is the rough cold cost of one frame's inference
// (backbone GEMMs dominate; calibrated against the reference container).
const estInferPerFrameSec = 4e-3

// executeInfer sweeps a memoized UDF over rendered frames.
func (s *Service) executeInfer(ctx context.Context, w *worker, spec *InferSpec) (*Response, error) {
	src, _ := s.source(spec.Source)
	if src == nil {
		return nil, fmt.Errorf("service: unknown frame source %q", spec.Source)
	}
	if spec.To > src.Frames() {
		return nil, fmt.Errorf("service: source %q has %d frames, sweep wants [%d, %d)",
			spec.Source, src.Frames(), spec.From, spec.To)
	}
	count := 0
	for t := spec.From; t < spec.To; t++ {
		// Frames are the sweep's natural cancellation boundary: a caller
		// that gave up (or a fired deadline) stops burning inference here.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		img, err := src.Render(t)
		if err != nil {
			return nil, fmt.Errorf("service: render %s[%d]: %w", spec.Source, t, err)
		}
		switch spec.UDF {
		case "detect":
			for _, d := range w.det.Detect(img) {
				if spec.Label == "" || d.Class.String() == spec.Label {
					count++
				}
			}
		case "embed":
			w.emb.Embed(img)
			count++
		case "ocr":
			for _, word := range w.ocr.Recognize(img) {
				if spec.Text == "" || word.Text == spec.Text {
					count++
				}
			}
		}
	}
	frames := spec.To - spec.From
	return &Response{
		Value:      count,
		Plan:       fmt.Sprintf("udf-sweep[%s@%s](%s[%d:%d))", spec.UDF, w.dev.Kind(), spec.Source, spec.From, spec.To),
		EstCostSec: float64(frames) * estInferPerFrameSec,
	}, nil
}

// ------------------------------------------------------------- stats ----

// Stats is the service's activity snapshot (served by /stats).
type Stats struct {
	UptimeSec float64 `json:"uptime_sec"`

	Workers  int `json:"workers"`
	QueueCap int `json:"queue_cap"`
	// QueueDepth is the admitted-but-unclaimed task count, snapshotted
	// under the same lock as the in-flight counter so the pair is
	// consistent.
	QueueDepth int `json:"queue_depth"`
	Sources    int `json:"sources"`

	Admitted     int64 `json:"admitted"`
	Rejected     int64 `json:"rejected"`
	Coalesced    int64 `json:"coalesced"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	InFlight     int64 `json:"in_flight"`
	PeakInFlight int64 `json:"peak_in_flight"`

	// Live ingest: append requests served, rows committed, and the
	// columnar read side's incremental-extension record — how many stale
	// column stores were upgraded in place and the sealed-block reuse
	// those upgrades achieved (ExtendReuseBlocks of ExtendTotalBlocks
	// carried over without re-projection).
	Appends           int64 `json:"appends"`
	AppendedRows      int64 `json:"appended_rows"`
	ColumnExtends     int64 `json:"column_extends"`
	ExtendReuseBlocks int64 `json:"extend_reuse_blocks"`
	ExtendTotalBlocks int64 `json:"extend_total_blocks"`

	// Tiered columns: the spilled-segment record (all zero when
	// Config.ColumnMemBudget leaves tiering off). SegmentLoadFaults
	// counts segments rebuilt from the row snapshot after an undecodable
	// encoding — never a failed query, always a counted repair.
	// SegmentTransientLoads is the part of SegmentLoads (and faults)
	// served from a kernel's scratch without entering the cache.
	SegmentSpills         int64 `json:"segment_spills"`
	SegmentLoads          int64 `json:"segment_loads"`
	SegmentTransientLoads int64 `json:"segment_transient_loads"`
	SegmentLoadFaults     int64 `json:"segment_load_faults"`
	SegmentEvictions      int64 `json:"segment_evictions"`
	SegmentResidentBytes  int64 `json:"segment_resident_bytes"`
	ColumnMemBudget       int64 `json:"column_mem_budget"`

	// ANN serving: knn queries executed (cold; cache hits excluded like
	// every execution counter) and the vector-index maintenance record —
	// incremental extensions by the appended rows vs full builds.
	KNNQueries    int64 `json:"knn_queries"`
	IndexExtends  int64 `json:"index_extends"`
	IndexRebuilds int64 `json:"index_rebuilds"`
	// The vector distances exact index probes and brute kNN scans
	// evaluated, and the sealed column segments sorted for scalar index
	// probes (once each).
	KNNDistanceEvalsIndex int64 `json:"knn_distance_evals_index"`
	KNNDistanceEvalsScan  int64 `json:"knn_distance_evals_scan"`
	ScalarSegmentsSorted  int64 `json:"scalar_segments_sorted"`

	// The Go runtime: heap bytes the last collection marked live,
	// completed collections, and the CPU time they spent.
	GoHeapLiveBytes int64   `json:"go_heap_live_bytes"`
	GoGCCycles      int64   `json:"go_gc_cycles"`
	GoGCCPUSeconds  float64 `json:"go_gc_cpu_seconds"`

	ResultCache   CacheStats `json:"result_cache"`
	UDFCache      CacheStats `json:"udf_cache"`
	ResultHitRate float64    `json:"result_hit_rate"`

	Device           string  `json:"device"`
	Devices          int     `json:"devices"`
	DeviceKernels    int64   `json:"device_kernels"`
	DeviceLaunches   int64   `json:"device_launches"`
	DeviceFLOPs      int64   `json:"device_flops"`
	DeviceOverheadMS float64 `json:"device_overhead_ms"`

	// Batcher is the aggregate kernel-coalescing record across every
	// device's scheduler; FusionFactor is its mean kernels-per-launch.
	Batcher      exec.BatcherStats `json:"batcher"`
	FusionFactor float64           `json:"fusion_factor"`

	// Sharding: partition count, per-shard storage snapshots, and the
	// scatter-gather activity record. ScatterTasks is the cumulative
	// fan-out (filter fragments + local and cross-shard join tasks);
	// MergeTimeMS is the cumulative wall time spent in the gather stage.
	Shards         int              `json:"shards"`
	ShardInfo      []core.ShardInfo `json:"shard_info,omitempty"`
	ScatterQueries int64            `json:"scatter_queries"`
	ScatterTasks   int64            `json:"scatter_tasks"`
	MergeTimeMS    float64          `json:"merge_time_ms"`

	// Fault tolerance: per-shard replica count, the hedged-read and
	// retry activity record, partial (degraded) responses served, and
	// secondary-replica append failures absorbed (each leaves the
	// failing replica behind, out of the read set).
	Replicas            int   `json:"replicas"`
	HedgedFragments     int64 `json:"hedged_fragments"`
	FragmentRetries     int64 `json:"fragment_retries"`
	DegradedQueries     int64 `json:"degraded_queries"`
	ReplicaAppendErrors int64 `json:"replica_append_errors"`

	// Self-healing: completed replica repairs, the rows they appended,
	// and how many replicas currently hold other row counts than their
	// primaries (the /readyz gate; zero when the fleet is fully healed).
	ReplicaResyncs    int64 `json:"replica_resyncs"`
	ResyncRows        int64 `json:"resync_rows"`
	OutOfSyncReplicas int   `json:"out_of_sync_replicas"`

	// AdmissionShed counts appends refused at the append gate (Rejected
	// counts only queries refused at a full queue).
	AdmissionShed int64 `json:"admission_shed"`
}

// Stats snapshots the service counters. It is the one place a serving
// value is derived: /stats serves the snapshot as JSON, and a /metrics
// scrape renders its gauges and derived counters from one call.
func (s *Service) Stats() Stats {
	s.srcMu.RLock()
	nsrc := len(s.sources)
	s.srcMu.RUnlock()
	rc := s.results.Stats()
	var bs exec.BatcherStats
	var ds exec.Stats // every device's kernel counters: fusion shows as launches < kernels
	for _, b := range s.batchers {
		bs.Add(b.BatcherStats())
		d := b.Stats()
		ds.Kernels += d.Kernels
		ds.Launches += d.Launches
		ds.FLOPs += d.FLOPs
		ds.Overhead += d.Overhead
	}
	s.statsMu.Lock()
	queueDepth := len(s.queue)
	inFlight := s.inFlight.Load()
	s.statsMu.Unlock()
	rs := s.shards.RefreshStats()
	resyncs, resyncRows := s.shards.ResyncStats()
	scs := s.segCache.Stats() // nil-safe: zero record when tiering is off
	heapLive, gcCycles, gcCPU := goRuntimeStats()
	return Stats{
		UptimeSec:  time.Since(s.start).Seconds(),
		Workers:    s.cfg.Workers,
		QueueCap:   cap(s.queue),
		QueueDepth: queueDepth,
		Sources:    nsrc,

		Admitted:     s.tel.admitted.Value(),
		Rejected:     s.tel.rejected.Value(),
		Coalesced:    s.tel.coalesced.Value(),
		Completed:    s.tel.completed.Value(),
		Failed:       s.tel.failed.Value(),
		InFlight:     inFlight,
		PeakInFlight: s.peakInFlight.Load(),

		Appends:           s.tel.appends.Value(),
		AppendedRows:      s.tel.appendedRows.Value(),
		ColumnExtends:     rs.ColumnExtends,
		ExtendReuseBlocks: rs.ColumnReusedBlocks,
		ExtendTotalBlocks: rs.ColumnTotalBlocks,

		SegmentSpills:         scs.Spills,
		SegmentLoads:          scs.Loads,
		SegmentTransientLoads: scs.TransientLoads,
		SegmentLoadFaults:     scs.LoadFaults,
		SegmentEvictions:      scs.Evictions,
		SegmentResidentBytes:  scs.ResidentBytes,
		ColumnMemBudget:       s.cfg.ColumnMemBudget,

		KNNQueries:    s.tel.knnQueries.Value(),
		IndexExtends:  rs.VectorExtends,
		IndexRebuilds: rs.VectorRebuilds,

		KNNDistanceEvalsIndex: rs.KNNIndexEvals,
		KNNDistanceEvalsScan:  rs.KNNScanEvals,
		ScalarSegmentsSorted:  rs.ScalarSorted,

		GoHeapLiveBytes: heapLive,
		GoGCCycles:      gcCycles,
		GoGCCPUSeconds:  gcCPU,

		ResultCache:   rc,
		UDFCache:      s.udfMemo.Stats(),
		ResultHitRate: rc.HitRate(),

		Device:           s.cfg.Device.String(),
		Devices:          s.cfg.Devices,
		DeviceKernels:    ds.Kernels,
		DeviceLaunches:   ds.Launches,
		DeviceFLOPs:      ds.FLOPs,
		DeviceOverheadMS: float64(ds.Overhead) / 1e6,

		Batcher:      bs,
		FusionFactor: bs.FusionFactor(),

		Shards:         s.shards.NumShards(),
		ShardInfo:      s.shards.ShardInfos(),
		ScatterQueries: s.tel.scatterQueries.Value(),
		ScatterTasks:   s.tel.scatterTasks.Value(),
		MergeTimeMS:    float64(s.mergeNS.Load()) / 1e6,

		Replicas:            s.shards.Replicas(),
		HedgedFragments:     s.tel.hedgedFragments.Value(),
		FragmentRetries:     s.tel.fragmentRetries.Value(),
		DegradedQueries:     s.tel.degradedQueries.Value(),
		ReplicaAppendErrors: s.shards.ReplicaAppendErrors(),

		ReplicaResyncs:    resyncs,
		ResyncRows:        resyncRows,
		OutOfSyncReplicas: len(s.shards.OutOfSyncReplicas()),

		AdmissionShed: s.tel.admissionShed.Value(),
	}
}

// Metrics returns the service's metrics registry (the source behind
// GET /metrics). Exposed so embedding binaries can add their own
// families or render the exposition out-of-band.
func (s *Service) Metrics() *obs.Registry { return s.tel.reg }

// SlowQueries returns the retained slow-query log entries, newest
// first (the source behind GET /debug/slow).
func (s *Service) SlowQueries() []obs.SlowEntry { return s.tel.slow.Snapshot() }
