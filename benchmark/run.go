package main

// The run protocol: set-up, warm-up, eight fixed-work rounds driven by
// one closed-loop client through Service.Handler().ServeHTTP, and the
// deferred in-order check of the sampled responses against the oracle.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

const (
	measuredRounds = 8
	// setupRepeats is how many times a run sets the system up from
	// scratch; setup_s is the median, the last instance is measured.
	setupRepeats = 3
	// checkStride samples the timed responses for the oracle;
	// warmCheckStride the warm-up's, which is checked more densely
	// because nothing else has vouched for the instance yet.
	checkStride     = 64
	warmCheckStride = 8
)

// runConfig is one benchmark run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	scale   int  // divides rows and work; 1 outside -smoke
	rounds  int  // measuredRounds outside -smoke
	setups  int  // setupRepeats outside -smoke
	verify  bool // check every response, not every checkStride-th
	dataDir string
}

// plan is everything derived from the seed, built before any clock
// starts so generation cost lands in no metric.
type plan struct {
	fixture  []row
	warm     []*op // half a round: enough for lazy builds, planner EWMAs and cache fill
	rounds   [][]*op
	appended int // rows the op lists append in total
}

func (c *runConfig) unitsPerRound() int {
	n := int(c.w.unitsPerSec * c.seconds / float64(measuredRounds) / float64(c.scale))
	if n < 1 {
		n = 1
	}
	return n
}

func (c *runConfig) newPlan() *plan {
	rows := c.w.rows / c.scale
	p := &plan{fixture: genRows(rand.New(rand.NewSource(c.seed)), 0, rows, c.w.withEmb)}
	g := newOpGen(c.seed, c.w, rows)
	n := c.unitsPerRound()
	p.warm = c.w.round(g, (n+1)/2)
	for r := 0; r < c.rounds; r++ {
		p.rounds = append(p.rounds, c.w.round(g, n))
	}
	p.appended = g.nextFrame - rows
	return p
}

// instance is one set-up system under test.
type instance struct {
	b   *backend
	svc *service.Service
	h   http.Handler
	ids []core.PatchID // fixture ids, until startOracle consumes them
	o   *oracle
	// fixtureLoad is the wall time of the fixture's core appends.
	fixtureLoad time.Duration
	warm        *passResult
}

func (in *instance) close() error {
	in.svc.Close()
	return in.b.destroy()
}

// setUp builds a fresh system: fixture rows appended through core,
// flushed, service started, the warm-up served (first column build,
// planner EWMAs, cache fill). It returns the instance and the wall time
// of all of that.
func (c *runConfig) setUp(p *plan, n int) (*instance, time.Duration, error) {
	dir := filepath.Join(c.dataDir, fmt.Sprintf("%s-%d-%d", c.w.name, os.Getpid(), n))
	start := time.Now()
	b, err := openBackend(dir, c.w.shards)
	if err != nil {
		return nil, 0, err
	}
	ids, err := b.load(p.fixture, c.w.withEmb)
	loaded := time.Since(start)
	if err == nil {
		err = b.flush()
	}
	if err != nil {
		b.destroy()
		return nil, 0, err
	}
	svc, err := b.newService(service.Config{Workers: 2, ColumnMemBudget: c.w.memBudget})
	if err != nil {
		b.destroy()
		return nil, 0, err
	}
	in := &instance{b: b, svc: svc, h: svc.Handler(), fixtureLoad: loaded}
	cl := newClient(in.h)
	in.warm = cl.drive(p.warm, func(i int) bool { return c.verify || i%warmCheckStride == 0 }, nil)
	in.ids = ids
	return in, time.Since(start), nil
}

// startOracle gives the instance that will be measured its oracle and
// checks the warm-up responses it kept. Bench-side bookkeeping: it runs
// after the set-up clock has stopped. It returns the live heap the
// oracle holds, which stays until the run ends and is not the service's.
func (in *instance) startOracle(p *plan) uint64 {
	before := heapNow()
	in.o = newOracle(len(p.fixture) + p.appended)
	for i, r := range p.fixture {
		in.o.add(r, uint64(in.ids[i]), in.b.shardFor(in.ids[i]))
	}
	after := heapNow()
	in.ids = nil
	in.verify(in.warm)
	if after < before {
		return 0
	}
	return after - before
}

// sink is the counting http.ResponseWriter: it keeps the status, the
// byte count and the body of the response being written.
type sink struct {
	hdr    http.Header
	status int
	body   []byte
}

func (s *sink) Header() http.Header { return s.hdr }
func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}
func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.body = append(s.body, p...)
	return len(p), nil
}

// client is the one closed-loop caller.
type client struct {
	h    http.Handler
	sink sink
	urls map[string]*url.URL
	hdr  http.Header
}

func newClient(h http.Handler) *client {
	return &client{
		h:    h,
		sink: sink{hdr: make(http.Header)},
		urls: map[string]*url.URL{"/query": {Path: "/query"}, "/append": {Path: "/append"}},
		hdr:  http.Header{"Content-Type": {"application/json"}},
	}
}

// serve sends one op through the handler and returns the time from
// request bytes in to response bytes out. The response stays in
// cl.sink until the next call.
func (cl *client) serve(o *op) time.Duration {
	cl.sink.status, cl.sink.body = 0, cl.sink.body[:0]
	r := &http.Request{
		Method: http.MethodPost, URL: cl.urls[o.path()],
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: cl.hdr, Host: "benchmark",
		Body: io.NopCloser(bytes.NewReader(o.body)), ContentLength: int64(len(o.body)),
	}
	t0 := time.Now()
	cl.h.ServeHTTP(&cl.sink, r)
	return time.Since(t0)
}

// kept is one response retained for the oracle.
type kept struct {
	idx  int
	op   *op
	body []byte
}

// passResult is one driven op list.
type passResult struct {
	ops       []*op
	lat       []time.Duration // per op; negative marks a failed op
	failed    int
	respBytes int64
	wall      time.Duration
	cpu       time.Duration
	alloc     uint64 // TotalAlloc delta across the timed loop
	kept      []kept
	firstErr  error
}

// drive serves ops in order, one at a time. keep decides which
// responses the oracle will check; appends are always kept because the
// oracle's state depends on the ids they were assigned.
func (cl *client) drive(ops []*op, keep func(i int) bool, tr *tracer) *passResult {
	res := &passResult{ops: ops, lat: make([]time.Duration, len(ops))}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0, cpu0, t0 := mem.TotalAlloc, cpuTime(), time.Now()
	for i, o := range ops {
		sp := tr.begin("http"+o.path(), -1, i)
		d := cl.serve(o)
		tr.end(sp)
		res.respBytes += int64(len(cl.sink.body))
		if cl.sink.status != http.StatusOK {
			res.fail(i, fmt.Errorf("%s op %d (%s): HTTP %d: %s", o.path(), i, o.shape, cl.sink.status, bytes.TrimSpace(cl.sink.body)))
			continue
		}
		res.lat[i] = d
		if o.kind == opAppend || keep(i) {
			res.kept = append(res.kept, kept{i, o, append([]byte(nil), cl.sink.body...)})
		}
	}
	res.wall, res.cpu = time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&mem)
	res.alloc = mem.TotalAlloc - alloc0
	return res
}

func (res *passResult) fail(i int, err error) {
	res.lat[i] = -1
	res.failed++
	if res.firstErr == nil {
		res.firstErr = err
	}
}

// verify replays a pass's kept responses through the oracle in order.
// A mismatch turns the op into a failed one and drops its latency.
func (in *instance) verify(res *passResult) {
	for _, k := range res.kept {
		var err error
		if k.op.kind == opAppend {
			err = in.o.applyAppend(k.op.rows, k.body, in.b.shardForID)
		} else {
			err = in.o.check(&k.op.query, k.body)
		}
		if err != nil {
			res.fail(k.idx, fmt.Errorf("%s op %d (%s): %w", k.op.path(), k.idx, k.op.shape, err))
		}
	}
	res.kept = nil
}

// measured is one workload's untraced result.
type measured struct {
	setupS    []float64 // one per set-up
	rounds    []*passResult
	attempted int
	failed    int
	firstErr  error
	heapLive  uint64 // bytes, after a forced GC, less the bench's own plan and oracle
	diskBytes int64
	rowsKept  int
	stealPct  float64 // share of CPU time stolen over the measured window, -1 if unreadable
}

// count folds a driven op list into the run's attempted/failed tally.
func (m *measured) count(res *passResult) {
	m.attempted += len(res.ops)
	m.failed += res.failed
	if m.firstErr == nil {
		m.firstErr = res.firstErr
	}
}

// heapNow forces a collection and reads the live heap.
func heapNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// prepare sets the system up c.setups times and returns the last
// instance, the set-up times and the bench's own live heap: the plan,
// read before the first set-up, and the oracle.
func (c *runConfig) prepare(p *plan) (*instance, []float64, uint64, error) {
	baseline := heapNow()
	var in *instance
	var times []float64
	for n := 0; n < c.setups; n++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, nil, 0, err
			}
		}
		var d time.Duration
		var err error
		if in, d, err = c.setUp(p, n); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return in, times, baseline + in.startOracle(p), nil
}

func (c *runConfig) keep(i int) bool { return c.verify || i%checkStride == 0 }

// measure runs the untraced protocol on a prepared instance.
func (c *runConfig) measure(p *plan, in *instance, m *measured, baseline uint64) error {
	m.count(in.warm)
	cl := newClient(in.h)
	steal0, total0, okTicks := cpuTicks()
	for _, ops := range p.rounds {
		runtime.GC() // every round starts at the same heap phase
		res := cl.drive(ops, c.keep, nil)
		in.verify(res)
		m.rounds = append(m.rounds, res)
		m.count(res)
	}
	m.stealPct = -1
	if steal1, total1, ok := cpuTicks(); ok && okTicks && total1 > total0 {
		m.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if live := heapNow(); live > baseline {
		m.heapLive = live - baseline
	}
	if err := in.b.flush(); err != nil {
		return err
	}
	var err error
	m.diskBytes, err = in.b.diskBytes()
	m.rowsKept = len(in.o.rows)
	return err
}

// timings are the request timings of the untraced rounds, every request
// included: throughput and CPU time per op as the median over the rounds
// of the per-round value, the percentiles over the pooled samples. None
// holds a 0.10 bound on this sandbox (NOISE.md), so they are per-layer
// service.* metrics, reported by every run and gated by none.
func (m *measured) timings() map[string]float64 {
	var opsPerS, cpuMS, queryMS, appendMS []float64
	for _, r := range m.rounds {
		opsPerS = append(opsPerS, float64(len(r.ops))/r.wall.Seconds())
		cpuMS = append(cpuMS, ms(r.cpu)/float64(len(r.ops)))
		queryMS = append(queryMS, r.latencies(opQuery)...)
		appendMS = append(appendMS, r.latencies(opAppend)...)
	}
	q := sorted(queryMS)
	return map[string]float64{
		"service.ops_per_s":     median(opsPerS),
		"service.cpu_ms_per_op": median(cpuMS),
		"service.query_p50_ms":  percentile(q, 0.50),
		"service.query_p90_ms":  percentile(q, 0.90),
		"service.query_p99_ms":  percentile(q, 0.99),
		"service.append_p50_ms": median(appendMS),
	}
}

// endToEnd reduces a measured run to the declared end-to-end metrics.
func (m *measured) endToEnd() map[string]float64 {
	var ops int
	var alloc uint64
	for _, r := range m.rounds {
		ops += len(r.ops) - r.failed
		alloc += r.alloc
	}
	return map[string]float64{
		"setup_s":            median(m.setupS),
		"alloc_kb_per_op":    float64(alloc) / 1024 / float64(ops),
		"heap_live_mb":       float64(m.heapLive) / (1 << 20),
		"disk_bytes_per_row": float64(m.diskBytes) / float64(m.rowsKept),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies returns the successful ops' latencies of one kind, in ms.
func (res *passResult) latencies(kind opKind) []float64 {
	var out []float64
	for i, d := range res.lat {
		if d >= 0 && res.ops[i].kind == kind {
			out = append(out, ms(d))
		}
	}
	return out
}
