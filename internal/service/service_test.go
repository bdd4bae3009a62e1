package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/fault"
)

var (
	envOnce sync.Once
	testEnv *bench.Env
	envErr  error
)

// getEnv lazily ingests one small shared benchmark environment.
func getEnv(t *testing.T) *bench.Env {
	t.Helper()
	envOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dl-service-test")
		if err != nil {
			envErr = err
			return
		}
		cfg := dataset.Default()
		cfg.TrafficFrames = 60
		cfg.PCImages = 40
		cfg.FootballClips = 1
		cfg.FootballClipLen = 10
		testEnv, envErr = bench.NewEnv(dir, cfg, exec.New(exec.CPU))
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return testEnv
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	e := getEnv(t)
	s, err := New(e.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func strp(s string) *string { return &s }

func pedCountReq() Request {
	return Request{
		Collection: bench.ColTrafficDets,
		Filter:     &FilterSpec{Field: "label", Str: strp("pedestrian")},
	}
}

func TestQueryFilterAndResultCache(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	ctx := context.Background()

	r1, err := s.Query(ctx, pedCountReq())
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	if r1.Value <= 0 {
		t.Fatalf("pedestrian count = %d, want > 0", r1.Value)
	}
	r2, err := s.Query(ctx, pedCountReq())
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second identical query missed the cache")
	}
	if r2.Value != r1.Value {
		t.Fatalf("cached value %d != computed %d", r2.Value, r1.Value)
	}
	st := s.Stats()
	if st.ResultCache.Hits < 1 {
		t.Fatalf("result cache hits = %d, want >= 1", st.ResultCache.Hits)
	}
	// Cache-aware cost shrinks as the hit rate climbs. (The columnar
	// scan's cold estimate can undercut the fixed cache-lookup charge, so
	// compare against the first query's cache-aware cost at hit rate 0,
	// not the bare plan estimate.)
	if r2.CacheAwareCostSec >= r1.CacheAwareCostSec && r1.EstCostSec > 0 {
		t.Fatalf("cache-aware cost %g did not shrink from %g as the hit rate climbed",
			r2.CacheAwareCostSec, r1.CacheAwareCostSec)
	}
}

func TestQueryPhysicalPlansAgree(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	ctx := context.Background()

	scan, err := s.Query(ctx, Request{
		Collection: bench.ColTrafficDets,
		Filter:     &FilterSpec{Field: "label", Str: strp("car")},
		NoCache:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := s.Query(ctx, Request{
		Collection: bench.ColTrafficDets,
		Filter:     &FilterSpec{Field: "label", Str: strp("car"), UseIndex: true},
		NoCache:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if scan.Value != indexed.Value {
		t.Fatalf("scan=%d indexed=%d: physical plans disagree", scan.Value, indexed.Value)
	}
	if scan.Plan == indexed.Plan {
		t.Fatalf("plans identical (%q): index path not taken", scan.Plan)
	}
	// Same logical query => same fingerprint regardless of physical plan.
	a := pedCountReq()
	b := pedCountReq()
	b.Filter.UseIndex = true
	fa, err := s.fingerprintFor(&a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := s.fingerprintFor(&b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatal("physical knob changed the logical fingerprint")
	}
}

func TestQuerySimJoinDistinct(t *testing.T) {
	s := newService(t, Config{Workers: 4})
	ctx := context.Background()
	req := Request{
		Collection: bench.ColTrafficDets,
		Filter:     &FilterSpec{Field: "label", Str: strp("pedestrian")},
		SimJoin:    &SimJoinSpec{Field: "emb", Eps: 0.15, MinCluster: 2},
		Distinct:   true,
	}
	r, err := s.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value <= 0 {
		t.Fatalf("distinct pedestrians = %d, want > 0", r.Value)
	}
	if r.EstCostSec <= 0 {
		t.Fatal("optimizer reported zero plan cost")
	}
	// The unfiltered indexed variant also runs (join-index path).
	r2, err := s.Query(ctx, Request{
		Collection: bench.ColPCImages,
		SimJoin:    &SimJoinSpec{Field: "ghist", Eps: 0.066, UseIndex: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Value < 0 {
		t.Fatalf("pair count = %d", r2.Value)
	}
}

func TestQueryRowsOrderLimit(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	r, err := s.Query(context.Background(), Request{
		Collection: bench.ColTrafficDets,
		Filter:     &FilterSpec{Field: "label", Str: strp("car")},
		OrderBy:    "frameno",
		Limit:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 || len(r.Rows) > 5 {
		t.Fatalf("rows = %d, want 1..5", len(r.Rows))
	}
	var last int64 = -1
	for _, row := range r.Rows {
		fn := rowField(row, "frameno").(int64)
		if fn < last {
			t.Fatalf("rows out of order: %d after %d", fn, last)
		}
		last = fn
	}
}

func TestQueryValidationErrors(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	ctx := context.Background()
	cases := []Request{
		{},                   // no target
		{Collection: "nope"}, // unknown collection
		{Collection: bench.ColPCWords, // undeclared field -> plan-time type error
			Filter: &FilterSpec{Field: "nosuch", Str: strp("x")}},
		{Collection: bench.ColPCWords, // two constants
			Filter: &FilterSpec{Field: "text", Str: strp("x"), Int: new(int64)}},
		{Collection: bench.ColPCWords, Distinct: true},                                // distinct without simjoin
		{Collection: bench.ColPCWords, SimJoin: &SimJoinSpec{Field: "x"}},             // eps <= 0
		{Infer: &InferSpec{Source: "s", From: 3, To: 3, UDF: "detect"}},               // empty range
		{Infer: &InferSpec{Source: "s", From: 0, To: 1, UDF: "segmentation"}},         // unknown udf
		{Collection: "c", Infer: &InferSpec{Source: "s", From: 0, To: 1, UDF: "ocr"}}, // both
	}
	for i, req := range cases {
		if _, err := s.Query(ctx, req); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
}

// trafficSource adapts the dataset generator to a FrameSource.
type trafficSource struct{ tr *dataset.Traffic }

func (t trafficSource) Frames() int { return t.tr.Frames }
func (t trafficSource) Render(i int) (*codec.Image, error) {
	img, _ := t.tr.Render(i)
	return img, nil
}

func TestInferSweepUDFMemoization(t *testing.T) {
	e := getEnv(t)
	s := newService(t, Config{Workers: 2})
	s.RegisterSource("trafficcam", trafficSource{e.Traffic})

	req := Request{
		Infer:   &InferSpec{Source: "trafficcam", From: 0, To: 8, UDF: "detect", Label: "car"},
		NoCache: true, // bypass the result cache so the UDF cache does the work
	}
	r1, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	misses := s.Stats().UDFCache.Misses
	if misses < 8 {
		t.Fatalf("first sweep recorded %d UDF misses, want >= 8", misses)
	}
	r2, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Value != r1.Value {
		t.Fatalf("memoized sweep value %d != cold value %d", r2.Value, r1.Value)
	}
	st := s.Stats()
	if st.UDFCache.Hits < 8 {
		t.Fatalf("second sweep recorded %d UDF hits, want >= 8", st.UDFCache.Hits)
	}
	if st.UDFCache.Misses != misses {
		t.Fatalf("second sweep re-ran inference: misses %d -> %d", misses, st.UDFCache.Misses)
	}
	// An overlapping sweep reuses the shared frames.
	r3, err := s.Query(context.Background(), Request{
		Infer:   &InferSpec{Source: "trafficcam", From: 4, To: 12, UDF: "detect", Label: "car"},
		NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = r3
	if got := s.Stats().UDFCache.Misses - misses; got != 4 {
		t.Fatalf("overlapping sweep ran %d fresh inferences, want 4", got)
	}
}

// blankSource is a FrameSource of n blank 8x8 frames.
type blankSource struct{ n int }

func (b blankSource) Frames() int { return b.n }
func (b blankSource) Render(int) (*codec.Image, error) {
	return &codec.Image{W: 8, H: 8, Pix: make([]uint8, 8*8*3)}, nil
}

// TestReRegisteredSourceMissesCachedSweeps: registering a source under a
// name already in use replaces it, so a sweep cached over the old source
// must not answer for the new one. An 8-frame sweep over a 5-frame
// replacement is out of range, and a sweep the new source can serve runs
// cold.
func TestReRegisteredSourceMissesCachedSweeps(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	ctx := context.Background()
	sweep := func(to int) Request {
		return Request{Infer: &InferSpec{Source: "cam", From: 0, To: to, UDF: "embed"}}
	}
	s.RegisterSource("cam", blankSource{n: 10})
	for i := 0; i < 2; i++ {
		r, err := s.Query(ctx, sweep(8))
		if err != nil || r.Value != 8 || r.CacheHit != (i == 1) {
			t.Fatalf("sweep %d over 10 frames: %+v, %v", i, r, err)
		}
	}
	short, err := s.Query(ctx, sweep(5))
	if err != nil || short.Value != 5 {
		t.Fatalf("5-frame sweep over 10 frames: %+v, %v", short, err)
	}

	s.RegisterSource("cam", blankSource{n: 5})
	if r, err := s.Query(ctx, sweep(8)); err == nil {
		t.Fatalf("8-frame sweep over the 5-frame replacement answered %d (cache_hit %v)", r.Value, r.CacheHit)
	}
	r, err := s.Query(ctx, sweep(5))
	if err != nil || r.Value != 5 || r.CacheHit {
		t.Fatalf("5-frame sweep over the replacement: %+v, %v; want 5 from a cold run", r, err)
	}
	if r.Fingerprint == short.Fingerprint {
		t.Fatal("the replacement's sweep kept the old source's fingerprint")
	}
}

// gateSource is a FrameSource whose renders block until released,
// letting the test observe steady-state concurrency deterministically.
type gateSource struct {
	release chan struct{}
	mu      sync.Mutex
	cur     int
	peak    int
}

func (g *gateSource) Frames() int { return 1 << 20 }

func (g *gateSource) Render(int) (*codec.Image, error) {
	g.mu.Lock()
	g.cur++
	if g.cur > g.peak {
		g.peak = g.cur
	}
	g.mu.Unlock()
	<-g.release
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
	return &codec.Image{W: 8, H: 8, Pix: make([]uint8, 8*8*3)}, nil
}

func (g *gateSource) peakConcurrency() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

func TestConcurrentQueriesSustainSixteenInFlight(t *testing.T) {
	s := newService(t, Config{Workers: 16, QueueDepth: 128})
	gate := &gateSource{release: make(chan struct{})}
	s.RegisterSource("gated", gate)
	ctx := context.Background()
	const callers = 48

	var done sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			req := Request{
				Infer:   &InferSpec{Source: "gated", From: i, To: i + 1, UDF: "detect"},
				NoCache: true,
			}
			if _, err := s.Query(ctx, req); err != nil {
				errs <- fmt.Errorf("caller %d: %w", i, err)
			}
		}(i)
	}
	// Wait for steady state: all 48 admitted, all 16 workers mid-query.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if gate.peakConcurrency() >= 16 && s.Stats().InFlight >= callers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached steady state: executing=%d in-flight=%d",
				gate.peakConcurrency(), s.Stats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PeakInFlight < callers {
		t.Fatalf("peak in-flight = %d, want >= %d", st.PeakInFlight, callers)
	}
	if got := gate.peakConcurrency(); got != 16 {
		t.Fatalf("concurrent executions peaked at %d, want exactly the 16 workers", got)
	}
	if st.Completed != callers {
		t.Fatalf("completed = %d, want %d", st.Completed, callers)
	}
}

func TestAdmissionControlRejectsWhenSaturated(t *testing.T) {
	s := newService(t, Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	const callers = 32

	var start, done sync.WaitGroup
	var rejected, succeeded atomic64
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			req := Request{
				Collection: bench.ColTrafficDets,
				SimJoin:    &SimJoinSpec{Field: "emb", Eps: 0.10 + float64(i)*1e-4},
				NoCache:    true,
			}
			_, err := s.Query(ctx, req)
			switch {
			case err == nil:
				succeeded.add(1)
			case errors.Is(err, ErrOverloaded):
				rejected.add(1)
			default:
				t.Errorf("caller %d: %v", i, err)
			}
		}(i)
	}
	start.Done()
	done.Wait()
	if rejected.load() == 0 {
		t.Fatal("saturated 1-worker/1-slot service rejected nothing")
	}
	if succeeded.load() == 0 {
		t.Fatal("no query succeeded under load")
	}
	st := s.Stats()
	if st.Rejected != rejected.load() {
		t.Fatalf("stats.Rejected = %d, callers saw %d", st.Rejected, rejected.load())
	}
}

func TestCoalescingRunsIdenticalColdQueriesOnce(t *testing.T) {
	s := newService(t, Config{Workers: 8})
	ctx := context.Background()
	const callers = 8

	var start, done sync.WaitGroup
	start.Add(1)
	values := make([]int, callers)
	errsl := make([]error, callers)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			r, err := s.Query(ctx, Request{
				Collection: bench.ColTrafficDets,
				SimJoin:    &SimJoinSpec{Field: "emb", Eps: 0.123},
			})
			if err != nil {
				errsl[i] = err
				return
			}
			values[i] = r.Value
		}(i)
	}
	start.Done()
	done.Wait()
	for i, err := range errsl {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < callers; i++ {
		if values[i] != values[0] {
			t.Fatalf("divergent results: %v", values)
		}
	}
	st := s.Stats()
	if st.Admitted != 1 {
		t.Fatalf("admitted = %d, want 1 (coalescing failed)", st.Admitted)
	}
	if st.Coalesced+st.ResultCache.Hits < callers-1 {
		t.Fatalf("coalesced=%d + hits=%d, want >= %d",
			st.Coalesced, st.ResultCache.Hits, callers-1)
	}
}

// TestCoalescedWaiterOutlivesItsLeader: a waiter coalesced onto a
// leader's flight is answered even when the leader hangs up, or hits its
// own deadline, before the shared execution finishes. Every fragment
// stalls 200ms, so the leader's context fails mid-execution.
func TestCoalescedWaiterOutlivesItsLeader(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cancel    time.Duration // the leader hangs up after this long (0 = never)
		timeoutMS int           // the leader's own deadline (0 = none)
		leaderErr error
	}{
		{name: "leader canceled", cancel: 50 * time.Millisecond, leaderErr: context.Canceled},
		{name: "leader deadline", timeoutMS: 80, leaderErr: ErrQueryTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, s := synthSharded(t, 1, 240, Config{Workers: 1, Faults: fault.Config{Seed: 1, Rules: []fault.Rule{
				{Point: fault.FragmentStall, Shard: fault.Any, Replica: fault.Any, Prob: 1, Stall: 200 * time.Millisecond},
			}}})
			req := Request{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: strp("car")}}
			key, err := s.fingerprintFor(&req)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel > 0 {
				time.AfterFunc(tc.cancel, cancel)
			}
			leaderReq := req
			leaderReq.TimeoutMS = tc.timeoutMS
			leaderErr := make(chan error, 1)
			go func() {
				_, err := s.Query(ctx, leaderReq)
				leaderErr <- err
			}()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
				s.flightMu.Lock()
				open := s.inflight[key] != nil
				s.flightMu.Unlock()
				if open {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("timed out waiting for the leader's flight")
				}
			}
			r, err := s.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("waiter failed with its leader: %v", err)
			}
			if r.Value == 0 {
				t.Fatal("waiter answered an empty count")
			}
			if err := <-leaderErr; !errors.Is(err, tc.leaderErr) {
				t.Fatalf("leader error = %v, want %v", err, tc.leaderErr)
			}
			if c := s.Stats().Coalesced; c != 1 {
				t.Fatalf("coalesced = %d, want 1 (the waiter must join the leader's flight)", c)
			}
		})
	}
}

func TestReingestInvalidatesStaleResults(t *testing.T) {
	e := getEnv(t)
	s := newService(t, Config{Workers: 2})
	ctx := context.Background()
	const colName = "service.reingest"

	schema := core.Schema{Fields: []core.Field{
		{Name: "label", Kind: core.KindStr},
		{Name: "frameno", Kind: core.KindInt},
	}}
	mkPatch := func(i int, label string) *core.Patch {
		return &core.Patch{
			Ref:  core.Ref{Source: "synthetic", Frame: uint64(i)},
			Meta: core.Metadata{"label": core.StrV(label), "frameno": core.IntV(int64(i))},
		}
	}
	col, err := e.DB.CreateCollection(colName, schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := col.Append(mkPatch(i, "cat")); err != nil {
			t.Fatal(err)
		}
	}
	req := Request{Collection: colName, Filter: &FilterSpec{Field: "label", Str: strp("cat")}}
	r1, err := s.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != 5 {
		t.Fatalf("pre-reingest count = %d, want 5", r1.Value)
	}

	// Re-ingest: drop, purge cached results, re-create with fewer cats.
	if err := e.DB.DropCollection(colName); err != nil {
		t.Fatal(err)
	}
	s.InvalidateCollection(colName)
	col2, err := e.DB.CreateCollection(colName, schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := col2.Append(mkPatch(i, "cat")); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := s.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Fatal("post-reingest query served a stale cache hit")
	}
	if r2.Value != 2 {
		t.Fatalf("post-reingest count = %d, want 2", r2.Value)
	}
	if r1.Fingerprint == r2.Fingerprint {
		t.Fatal("fingerprint did not change across re-ingest")
	}
	if err := e.DB.DropCollection(colName); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedPlanSeesAppendsAfterBuild(t *testing.T) {
	e := getEnv(t)
	s := newService(t, Config{Workers: 2})
	ctx := context.Background()
	const colName = "service.growing"

	schema := core.Schema{Fields: []core.Field{
		{Name: "label", Kind: core.KindStr},
		{Name: "frameno", Kind: core.KindInt},
	}}
	col, err := e.DB.CreateCollection(colName, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer e.DB.DropCollection(colName)
	mk := func(i int) *core.Patch {
		return &core.Patch{
			Ref:  core.Ref{Source: "synthetic", Frame: uint64(i)},
			Meta: core.Metadata{"label": core.StrV("cat"), "frameno": core.IntV(int64(i))},
		}
	}
	for i := 0; i < 5; i++ {
		if err := col.Append(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	req := Request{Collection: colName,
		Filter: &FilterSpec{Field: "label", Str: strp("cat"), UseIndex: true}}
	r1, err := s.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != 5 {
		t.Fatalf("indexed count = %d, want 5", r1.Value)
	}
	// Appends after the index build must be visible to the indexed plan
	// (the probe extends the index to the snapshot the query runs over).
	for i := 5; i < 8; i++ {
		if err := col.Append(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := s.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Fatal("version bump did not miss the result cache")
	}
	if r2.Value != 8 {
		t.Fatalf("indexed count after appends = %d, want 8 (stale index served)", r2.Value)
	}
	// The scan plan must agree — a poisoned cache entry would be shared.
	scan := req
	scan.Filter = &FilterSpec{Field: "label", Str: strp("cat")}
	r3, err := s.Query(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Value != 8 {
		t.Fatalf("scan count = %d, want 8", r3.Value)
	}
	if !r3.CacheHit {
		t.Fatal("logically identical scan did not share the indexed plan's cache entry")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	e := getEnv(t)
	s := newService(t, Config{Workers: 2})
	s.RegisterSource("trafficcam", trafficSource{e.Traffic})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// /healthz
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", hr.StatusCode)
	}
	hr.Body.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Valid query.
	resp, body := post(`{"collection":"` + bench.ColTrafficDets + `","filter":{"field":"label","str":"pedestrian"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query = %d: %s", resp.StatusCode, body)
	}
	var qr Response
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Value <= 0 {
		t.Fatalf("HTTP value = %d", qr.Value)
	}

	// Unknown collection -> 404.
	resp, _ = post(`{"collection":"no.such"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown collection = %d, want 404", resp.StatusCode)
	}
	// Malformed body -> 400.
	resp, _ = post(`{"collection":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}
	// Unknown field (typo'd request) -> 400.
	resp, _ = post(`{"colection":"x"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown request field = %d, want 400", resp.StatusCode)
	}
	// GET /query -> 405.
	gr, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", gr.StatusCode)
	}

	// /stats reflects the traffic above.
	sr, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Completed < 1 {
		t.Fatalf("stats completed = %d, want >= 1", st.Completed)
	}
	if st.Workers != 2 {
		t.Fatalf("stats workers = %d, want 2", st.Workers)
	}
}

// TestSharedDeviceBatcherFusesAcrossWorkers: with fewer devices than
// workers, concurrent queries' kernels route through the shared
// exec.Batcher and fuse into common launches under the service's one
// batching policy. Counts stay correct; /stats exposes the fusion record.
func TestSharedDeviceBatcherFusesAcrossWorkers(t *testing.T) {
	e := getEnv(t)
	s := newService(t, Config{Workers: 4, Devices: 1, Device: exec.GPU})
	s.RegisterSource("trafficcam", trafficSource{e.Traffic})

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct frame ranges: no result-cache hits, no coalescing,
			// no shared UDF-memo entries — every worker computes.
			r, err := s.Query(context.Background(), Request{
				Infer:   &InferSpec{Source: "trafficcam", From: i * 8, To: i*8 + 8, UDF: "embed"},
				NoCache: true,
			})
			if err != nil {
				errs <- err
				return
			}
			if r.Value != 8 {
				errs <- fmt.Errorf("worker %d embedded %d frames, want 8", i, r.Value)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Devices != 1 {
		t.Fatalf("devices = %d, want 1", st.Devices)
	}
	if st.Batcher.Submitted == 0 || st.Batcher.FusedKernels != st.Batcher.Submitted {
		t.Fatalf("batcher did not carry the kernels: %+v", st.Batcher)
	}
	if st.Batcher.MaxFusion < 2 {
		t.Fatalf("no cross-worker fusion observed: %+v", st.Batcher)
	}
	if st.DeviceLaunches >= st.DeviceKernels {
		t.Fatalf("launches %d not amortized below kernels %d",
			st.DeviceLaunches, st.DeviceKernels)
	}
	if st.FusionFactor <= 1 {
		t.Fatalf("fusion factor %.2f, want > 1", st.FusionFactor)
	}
}

// TestLoneSweepIsIdleFlushed: one infer sweep alone on a shared GPU
// registers as the device's only submitter, so each of its kernels
// launches the moment it queues — the idle flush — and never waits out
// the batch window, nor fills a batch sized for two workers.
func TestLoneSweepIsIdleFlushed(t *testing.T) {
	e := getEnv(t)
	s := newService(t, Config{Workers: 2, Devices: 1, Device: exec.GPU})
	s.RegisterSource("trafficcam", trafficSource{e.Traffic})
	r, err := s.Query(context.Background(), Request{
		Infer:   &InferSpec{Source: "trafficcam", From: 0, To: 4, UDF: "embed"},
		NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 4 {
		t.Fatalf("embedded %d frames, want 4", r.Value)
	}
	b := s.Stats().Batcher
	if b.Launches == 0 || b.FlushIdle != b.Launches || b.FlushDeadline != 0 || b.FlushSize != 0 {
		t.Fatalf("want every launch idle-flushed: %+v", b)
	}
}

func TestClosedServiceRefuses(t *testing.T) {
	e := getEnv(t)
	s, err := New(e.DB, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Query(context.Background(), pedCountReq()); !errors.Is(err, ErrClosed) {
		t.Fatalf("query on closed service = %v, want ErrClosed", err)
	}
}

// atomic64 is a tiny test counter (avoids importing sync/atomic with a
// name collision in the service package's tests).
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
