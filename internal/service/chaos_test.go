package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Chaos suite: the fault-injection harness drives every recovery branch
// of the replicated scatter path — hedged reads around stalled
// replicas, error retries, graceful degradation under a dead shard,
// deadline enforcement, and appends during replica failure — all with
// deterministic failpoints (internal/fault), no sleeps-and-hope.

// synthReplicated builds an n-shard, r-replica Sharded + service over
// the same synthetic rows the golden matrix uses.
func synthReplicated(t *testing.T, n, r, rows int, cfg Config) (*core.Sharded, *Service) {
	t.Helper()
	sdb, err := core.OpenShardedReplicas(filepath.Join(t.TempDir(), "replicated"), n, r, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	sc, err := sdb.CreateCollection(shardTestCol, synthSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillSynth(t, sc.Append, rows)
	s, err := NewSharded(sdb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return sdb, s
}

// TestHedgedReadsSurviveStalledReplica: with every shard's primary
// replica 100%-stalled (plus jittery device stalls on join tasks), the
// full query matrix must still return results byte-identical to a
// fault-free twin — the hedge to the healthy replica wins every
// fragment.
func TestHedgedReadsSurviveStalledReplica(t *testing.T) {
	const rows = 240
	faulted := Config{Workers: 2, HedgeAfter: 5 * time.Millisecond, Faults: fault.Config{
		Seed: 7,
		Rules: []fault.Rule{
			{Point: fault.FragmentStall, Shard: fault.Any, Replica: 0, Prob: 1, Stall: 300 * time.Millisecond},
			{Point: fault.DeviceStall, Shard: fault.Any, Replica: fault.Any, Prob: 0.3, Stall: 2 * time.Millisecond},
		},
	}}
	_, chaotic := synthReplicated(t, 3, 2, rows, faulted)
	_, healthy := synthReplicated(t, 3, 2, rows, Config{Workers: 2})
	ctx := context.Background()
	for qi, req := range queryMatrix() {
		hr, err := healthy.Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d fault-free: %v", qi, err)
		}
		cr, err := chaotic.Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d with stalled primaries: %v", qi, err)
		}
		if hg, cg := goldenKey(t, hr), goldenKey(t, cr); hg != cg {
			t.Errorf("query %d diverges under stalls:\n  healthy: %s\n  chaotic: %s", qi, hg, cg)
		}
		if cr.Degraded || len(cr.MissingShards) != 0 {
			t.Errorf("query %d reported degraded despite a healthy replica", qi)
		}
	}
	st := chaotic.Stats()
	if st.HedgedFragments == 0 {
		t.Fatal("stalled primaries produced zero hedged fragments")
	}
	// A traced query over the stalled primaries surfaces the hedge
	// decision as a span: which shard hedged, the budget, the winner.
	tr := mustQuery(t, chaotic, Request{Collection: shardTestCol, NoCache: true, Trace: true})
	if tr.TraceData == nil {
		t.Fatal("traced query returned no spans")
	}
	hedgeSpans := 0
	for _, sp := range tr.TraceData.Spans {
		if sp.Name != "hedge" {
			continue
		}
		hedgeSpans++
		for _, attr := range []string{"shard", "replica", "budget", "winner"} {
			if _, ok := sp.Attrs[attr]; !ok {
				t.Fatalf("hedge span missing %q attr: %v", attr, sp.Attrs)
			}
		}
	}
	if hedgeSpans == 0 {
		t.Fatal("no hedge span on a traced query with stalled primaries")
	}
	if st.Replicas != 2 {
		t.Fatalf("stats replicas = %d, want 2", st.Replicas)
	}
	// A fault-free service may hedge occasionally by design — a fragment
	// that outlives the 25ms default HedgeAfter races a hedge — but
	// hedges must stay rare next to a service whose primaries are all
	// stalled.
	if hh := healthy.Stats().HedgedFragments; hh*10 > st.HedgedFragments {
		t.Fatalf("fault-free twin hedged %d times vs %d under stalls (healthy budget too tight)",
			hh, st.HedgedFragments)
	}
}

// TestHedgeWaitsConfiguredBudget: the hedge budget is Config.HedgeAfter
// however fast past fragments ran. A warm histogram of sub-millisecond
// fragments must not pull it down below a 20ms stall on the primary.
func TestHedgeWaitsConfiguredBudget(t *testing.T) {
	const rows = 60
	rules, err := fault.ParseRules("fragment-stall@0.0:1.0:20")
	if err != nil {
		t.Fatal(err)
	}
	_, svc := synthReplicated(t, 1, 2, rows, Config{Workers: 1, HedgeAfter: 200 * time.Millisecond,
		Faults: fault.Config{Seed: 43, Rules: rules}})
	for i := 0; i < 40; i++ {
		svc.tel.fragmentDur.Observe(200e-6)
	}
	if r := mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true}); r.Value != rows {
		t.Fatalf("count = %d, want %d", r.Value, rows)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	exp, err := obs.CheckExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("deeplens_hedged_fragments_total", nil); !ok || v != 0 {
		t.Fatalf("deeplens_hedged_fragments_total = %v (found=%v), want 0 inside a 200ms budget", v, ok)
	}
}

// TestFragmentErrorRetriesToSecondReplica: a fragment whose first
// attempt fails outright gets one jittered retry on the next replica —
// the query succeeds and the retry counter moves, for filters and kNN
// probes alike.
func TestFragmentErrorRetriesToSecondReplica(t *testing.T) {
	const rows = 120
	_, svc := synthReplicated(t, 2, 2, rows, Config{Workers: 2, Faults: fault.Config{
		Seed:  11,
		Rules: []fault.Rule{{Point: fault.FragmentError, Shard: 0, Replica: 0, Prob: 1}},
	}})
	r := mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true})
	if r.Value != rows {
		t.Fatalf("count with failing primary = %d, want %d", r.Value, rows)
	}
	retries := svc.Stats().FragmentRetries
	if retries == 0 {
		t.Fatal("failing primary produced zero fragment retries")
	}
	r = mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true,
		KNN: &KNNSpec{Field: "emb", K: 5, Query: knnQ(2), Exact: true}})
	if r.Value != 5 {
		t.Fatalf("knn with failing primary = %d neighbors, want 5", r.Value)
	}
	if st := svc.Stats(); st.FragmentRetries <= retries {
		t.Fatalf("knn over a failing primary left fragment retries at %d", st.FragmentRetries)
	}
}

// TestFaultKnobsAtFanOutOne: Config.Faults, the one fragment
// error-retry, allow_partial, timeout_ms and fragment trace spans act
// the same whether a single database is served through New or through
// NewSharded over one shard — both run the one scatter pipeline.
func TestFaultKnobsAtFanOutOne(t *testing.T) {
	const rows = 60
	failShard0 := fault.Config{Seed: 11, Rules: []fault.Rule{
		{Point: fault.FragmentError, Shard: 0, Replica: 0, Prob: 1}}}
	stallShard0 := fault.Config{Seed: 17, Rules: []fault.Rule{
		{Point: fault.FragmentStall, Shard: 0, Replica: 0, Prob: 1, Stall: 2 * time.Second}}}
	cases := []struct {
		name   string
		faults fault.Config
		check  func(t *testing.T, svc *Service)
	}{
		{"fragment-error is retried once and counted", failShard0, func(t *testing.T, svc *Service) {
			_, err := svc.Query(context.Background(), Request{Collection: shardTestCol, NoCache: true})
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("query over a failing shard = %v, want the injected fault", err)
			}
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			exp, err := obs.CheckExposition(rec.Body)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := exp.Value("deeplens_fragment_retries_total", nil); !ok || v != 1 {
				t.Fatalf("deeplens_fragment_retries_total = %v (found=%v), want 1", v, ok)
			}
		}},
		{"allow_partial with the only shard failing is an error", failShard0, func(t *testing.T, svc *Service) {
			r, err := svc.Query(context.Background(), Request{Collection: shardTestCol, NoCache: true, AllowPartial: true})
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("allow_partial with every shard missing = %+v, %v; want the shard's error", r, err)
			}
			if st := svc.Stats(); st.DegradedQueries != 0 {
				t.Fatalf("degraded_queries = %d for a query no shard answered", st.DegradedQueries)
			}
		}},
		{"timeout_ms yields 504", stallShard0, func(t *testing.T, svc *Service) {
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewBufferString(
				`{"collection":"`+shardTestCol+`","no_cache":true,"timeout_ms":50}`)))
			if rec.Code != http.StatusGatewayTimeout {
				t.Fatalf("timed-out query = %d, want 504", rec.Code)
			}
		}},
		{"traced query carries a fragment span", fault.Config{}, func(t *testing.T, svc *Service) {
			str := "car"
			r := mustQuery(t, svc, Request{Collection: shardTestCol,
				Filter: &FilterSpec{Field: "label", Str: &str}, Trace: true})
			if r.TraceData == nil {
				t.Fatal("traced query returned no spans")
			}
			frags := spansByName(r.TraceData)["fragment"]
			if len(frags) != 1 {
				t.Fatalf("fragment spans = %d, want 1", len(frags))
			}
			for attr, want := range map[string]string{"path": "column-scan(label)", "rows": "60", "matched": "20"} {
				if got := frags[0].Attrs[attr]; got != want {
					t.Fatalf("fragment span %s = %q, want %q (%v)", attr, got, want, frags[0].Attrs)
				}
			}
			r = mustQuery(t, svc, Request{Collection: shardTestCol,
				KNN: &KNNSpec{Field: "emb", K: 5, Query: knnQ(1), Exact: true, UseIndex: true}, Trace: true})
			frags = spansByName(r.TraceData)["fragment"]
			if len(frags) != 1 {
				t.Fatalf("knn fragment spans = %d, want 1", len(frags))
			}
			for attr, want := range map[string]string{"path": "knn-index[exact](emb, k=5)", "rows": "60", "candidates": "5"} {
				if got := frags[0].Attrs[attr]; got != want {
					t.Fatalf("knn fragment span %s = %q, want %q (%v)", attr, got, want, frags[0].Attrs)
				}
			}
		}},
	}
	for _, c := range cases {
		cfg := Config{Workers: 1, Faults: c.faults}
		t.Run(c.name+"/New", func(t *testing.T) {
			_, svc := synthUnsharded(t, rows, cfg)
			c.check(t, svc)
		})
		t.Run(c.name+"/NewSharded(1)", func(t *testing.T) {
			_, svc := synthSharded(t, 1, rows, cfg)
			c.check(t, svc)
		})
	}
}

// TestDeadShardDegradedResults: with both replicas of shard 1 erroring,
// a default query fails while allow_partial returns the surviving
// shards' answer annotated degraded + missing-shard list — and the
// degraded response never enters the result cache.
func TestDeadShardDegradedResults(t *testing.T) {
	const rows = 240
	sdb, svc := synthReplicated(t, 3, 2, rows, Config{Workers: 2, Faults: deadShard(3, 1)})
	ctx := context.Background()

	if _, err := svc.Query(ctx, Request{Collection: shardTestCol}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("default query over a dead shard = %v, want the injected fault", err)
	}

	wantPartial := rows - sdb.ShardInfos()[1].Rows
	r, err := svc.Query(ctx, Request{Collection: shardTestCol, AllowPartial: true})
	if err != nil {
		t.Fatalf("allow_partial query over a dead shard: %v", err)
	}
	if !r.Degraded || len(r.MissingShards) != 1 || r.MissingShards[0] != 1 {
		t.Fatalf("partial annotation = degraded=%v missing=%v, want shard 1", r.Degraded, r.MissingShards)
	}
	if r.Value != wantPartial {
		t.Fatalf("partial count = %d, want %d (surviving shards only)", r.Value, wantPartial)
	}
	// Degraded responses are not cached: the rerun recomputes.
	r2, err := svc.Query(ctx, Request{Collection: shardTestCol, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Fatal("degraded response was served from the result cache")
	}
	// Ordered rows and joins degrade the same way.
	or, err := svc.Query(ctx, Request{Collection: shardTestCol, OrderBy: "score", Limit: 10, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !or.Degraded || len(or.Rows) != 10 {
		t.Fatalf("degraded ordered query: degraded=%v rows=%d", or.Degraded, len(or.Rows))
	}
	jr, err := svc.Query(ctx, Request{Collection: shardTestCol,
		SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !jr.Degraded {
		t.Fatal("degraded simjoin lost its annotation")
	}
	// So do kNN probes: the surviving shards' neighbors, annotated.
	kr, err := svc.Query(ctx, Request{Collection: shardTestCol,
		KNN: &KNNSpec{Field: "emb", K: 5, Query: knnQ(3)}, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !kr.Degraded || len(kr.MissingShards) != 1 || kr.MissingShards[0] != 1 || kr.Value != 5 {
		t.Fatalf("degraded knn: degraded=%v missing=%v value=%d", kr.Degraded, kr.MissingShards, kr.Value)
	}
	if st := svc.Stats(); st.DegradedQueries < 5 {
		t.Fatalf("degraded_queries = %d, want >= 5", st.DegradedQueries)
	}

	// On a healthy service allow_partial changes the fingerprint (a
	// possibly-partial answer must never share a cache entry with the
	// full one) but not the result.
	_, healthy := synthReplicated(t, 3, 2, rows, Config{Workers: 2})
	full := mustQuery(t, healthy, Request{Collection: shardTestCol})
	part := mustQuery(t, healthy, Request{Collection: shardTestCol, AllowPartial: true})
	if full.Fingerprint == part.Fingerprint {
		t.Fatal("allow_partial does not alter the fingerprint")
	}
	if part.Value != full.Value || part.Degraded {
		t.Fatalf("healthy allow_partial = %d degraded=%v, want full %d", part.Value, part.Degraded, full.Value)
	}
}

// TestAllReplicasStalledTimeoutVsPartial: every replica of shard 1
// wedged beyond the query deadline — the default query fails fast with
// ErrQueryTimeout at its deadline, while allow_partial sacrifices the
// wedged shard early and still answers inside the budget.
func TestAllReplicasStalledTimeoutVsPartial(t *testing.T) {
	const rows = 240
	wedged := fault.Config{Seed: 5, Rules: []fault.Rule{
		{Point: fault.FragmentStall, Shard: 1, Replica: 0, Prob: 1, Stall: 5 * time.Second},
		{Point: fault.FragmentStall, Shard: 1, Replica: 1, Prob: 1, Stall: 5 * time.Second},
	}}
	sdb, svc := synthReplicated(t, 3, 2, rows, Config{
		Workers: 2, QueryTimeout: 250 * time.Millisecond, Faults: wedged,
	})
	ctx := context.Background()

	start := time.Now()
	_, err := svc.Query(ctx, Request{Collection: shardTestCol, NoCache: true})
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("default query over a wedged shard = %v, want ErrQueryTimeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("timeout took %v, want ~250ms (deadline not propagated into the stall)", el)
	}

	r, err := svc.Query(ctx, Request{Collection: shardTestCol, NoCache: true, AllowPartial: true})
	if err != nil {
		t.Fatalf("allow_partial under a wedged shard: %v", err)
	}
	if !r.Degraded || len(r.MissingShards) != 1 || r.MissingShards[0] != 1 {
		t.Fatalf("partial annotation = degraded=%v missing=%v, want shard 1", r.Degraded, r.MissingShards)
	}
	if want := rows - sdb.ShardInfos()[1].Rows; r.Value != want {
		t.Fatalf("partial count = %d, want %d", r.Value, want)
	}
}

// TestQueryCancellation (regression for the deadline-propagation bug):
// a pre-canceled context never reaches the scatter wave, and a context
// canceled mid-wave aborts stalled fragments promptly instead of
// burning the full fan-out.
func TestQueryCancellation(t *testing.T) {
	stallAll := fault.Config{Seed: 9, Rules: []fault.Rule{
		{Point: fault.FragmentStall, Shard: fault.Any, Replica: fault.Any, Prob: 1, Stall: 2 * time.Second},
	}}
	_, svc := synthReplicated(t, 2, 1, 120, Config{Workers: 2, Faults: stallAll})

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Query(pre, Request{Collection: shardTestCol, NoCache: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled query = %v, want context.Canceled", err)
	}

	mid, cancelMid := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := svc.Query(mid, Request{Collection: shardTestCol, NoCache: true})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancelMid()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-wave canceled query = %v, want context.Canceled", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("cancel honored after %v; fragments kept running", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled query never returned (stall ignored ctx)")
	}
}

// TestAppendDuringReplicaFailureHammer: appends race scattered queries
// while a flaky secondary replica drops writes. Appends and queries
// must all succeed (primary-authoritative write-all demotes the broken
// replica instead of failing), the demoted replica leaves the read
// set, and the quiesced count is exact. Run under -race this is the
// memory-model check for the insync/demotion machinery.
func TestAppendDuringReplicaFailureHammer(t *testing.T) {
	const initial, appends = 60, 120
	flakySecondary := fault.Config{Seed: 13, Rules: []fault.Rule{
		{Point: fault.AppendError, Shard: fault.Any, Replica: 1, Prob: 0.4},
	}}
	sdb, svc := synthReplicated(t, 3, 2, initial, Config{Workers: 4, Faults: flakySecondary})
	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := sc.Append(synthPatch(initial + i)); err != nil {
				t.Errorf("append with flaky secondary: %v", err)
				return
			}
		}
	}()
	reqs := []Request{
		{Collection: shardTestCol, NoCache: true},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: strp("car")}, NoCache: true},
		{Collection: shardTestCol, OrderBy: "score", Limit: 8, NoCache: true},
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := svc.Query(ctx, reqs[(c+i)%len(reqs)]); err != nil {
					t.Errorf("query during replica failure: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	r := mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true})
	if r.Value != initial+appends {
		t.Fatalf("post-hammer count = %d, want %d", r.Value, initial+appends)
	}
	st := svc.Stats()
	if st.ReplicaAppendErrors == 0 {
		t.Fatal("flaky secondary produced zero replica append errors (test is vacuous)")
	}
	demoted := 0
	for i := 0; i < 3; i++ {
		if len(sdb.InSyncReplicas(i)) == 1 {
			demoted++
		}
	}
	if demoted == 0 {
		t.Fatal("no replica was demoted despite dropped writes")
	}
	for _, info := range sdb.ShardInfos() {
		for _, r := range info.OutOfSync {
			if r != 1 {
				t.Fatalf("out-of-sync replica %d, only replica 1 was flaky", r)
			}
		}
	}
}

// TestHTTPOverloadAndTimeout pins the HTTP error contract for the two
// retryable failures: admission overflow maps to 429 and a query that
// exceeds its deadline maps to 504, both with Retry-After.
func TestHTTPOverloadAndTimeout(t *testing.T) {
	stallAll := fault.Config{Seed: 17, Rules: []fault.Rule{
		{Point: fault.FragmentStall, Shard: fault.Any, Replica: fault.Any, Prob: 1, Stall: 600 * time.Millisecond},
	}}
	_, svc := synthReplicated(t, 1, 1, 60, Config{Workers: 1, QueueDepth: 1, Faults: stallAll})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Deadline exceeded -> 504 + Retry-After (per-request timeout_ms).
	resp := post(`{"collection":"` + shardTestCol + `","no_cache":true,"timeout_ms":100}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query = %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 missing Retry-After")
	}

	// Overload -> 429 + Retry-After: wedge the single worker and the
	// one queue slot with stalled queries, then probe. The second query
	// is posted only once the worker holds the first: posted together,
	// it could find the first still queued and be refused itself.
	var wg sync.WaitGroup
	deadline := time.Now().Add(5 * time.Second)
	for _, label := range []string{"car", "bus"} {
		wg.Add(1)
		go func(label string) {
			defer wg.Done()
			post(`{"collection":"` + shardTestCol + `","no_cache":true,"timeout_ms":400,` +
				`"filter":{"field":"label","str":"` + label + `"}}`)
		}(label)
		for {
			st := svc.Stats()
			if label == "car" && st.InFlight == 1 && st.QueueDepth == 0 || label == "bus" && st.InFlight >= 1 && st.QueueDepth >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker + queue never filled (waiting after %s)", label)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	resp = post(`{"collection":"` + shardTestCol + `","no_cache":true,"filter":{"field":"label","str":"pedestrian"}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("query over a full queue = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}

	// A saturated append gate -> 429 + Retry-After: 1.
	held := 0
	for svc.tryAppendSlot() {
		held++
	}
	resp, err := http.Post(srv.URL+"/append", "application/json", bytes.NewBufferString(
		`{"collection":"`+shardTestCol+`","patch":{"source":"synth","meta":{"label":"car"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for ; held > 0; held-- {
		svc.releaseAppendSlot()
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("append past a saturated gate = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("append 429 Retry-After = %q, want 1", got)
	}
	wg.Wait()
}

// TestAutoResyncAfterReplicaKill: every secondary replica drops every
// client append (a "killed" replica), demoting it on first write. The
// anti-entropy loop must stream the missed suffix back and re-promote
// without any operator action — and afterwards, hedged reads landing on
// the repaired replicas must be byte-identical to a fault-free twin
// holding the same data.
func TestAutoResyncAfterReplicaKill(t *testing.T) {
	const initial, appends = 60, 90
	cfg := Config{
		Workers:        2,
		HedgeAfter:     5 * time.Millisecond,
		ResyncInterval: 15 * time.Millisecond,
		Faults: fault.Config{Seed: 23, Rules: []fault.Rule{
			// Replica 1 misses every client append...
			{Point: fault.AppendError, Shard: fault.Any, Replica: 1, Prob: 1},
			// ...and every primary stalls on reads, so post-repair queries
			// hedge onto the replicas the resync rebuilt.
			{Point: fault.FragmentStall, Shard: fault.Any, Replica: 0, Prob: 1, Stall: 200 * time.Millisecond},
		}},
	}
	sdb, svc := synthReplicated(t, 3, 2, initial, cfg)
	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < appends; i++ {
		if err := sc.Append(synthPatch(initial + i)); err != nil {
			t.Fatalf("append with killed replicas: %v", err)
		}
	}
	// The append fault stays armed (it only hits client appends; the
	// repair stream commits directly on the replica), so once the burst
	// stops the loop converges to fully in-sync.
	deadline := time.Now().Add(10 * time.Second)
	for len(sdb.OutOfSyncReplicas()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replicas never healed: %+v", sdb.OutOfSyncReplicas())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := svc.Stats()
	if st.ReplicaResyncs == 0 || st.ResyncRows == 0 {
		t.Fatalf("healed with resyncs=%d rows=%d, want both nonzero", st.ReplicaResyncs, st.ResyncRows)
	}
	if st.OutOfSyncReplicas != 0 {
		t.Fatalf("stats report %d out-of-sync replicas after heal", st.OutOfSyncReplicas)
	}

	// Fault-free twin with identical contents (patch ids are assigned by
	// the same deterministic counter, so placement matches too).
	hdb, healthy := synthReplicated(t, 3, 2, initial, Config{Workers: 2})
	hsc, err := hdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < appends; i++ {
		if err := hsc.Append(synthPatch(initial + i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for qi, req := range queryMatrix() {
		hr, err := healthy.Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d fault-free: %v", qi, err)
		}
		cr, err := svc.Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d post-repair: %v", qi, err)
		}
		if hg, cg := goldenKey(t, hr), goldenKey(t, cr); hg != cg {
			t.Errorf("query %d diverges on resynced replicas:\n  healthy: %s\n  repaired: %s", qi, hg, cg)
		}
	}
	if svc.Stats().HedgedFragments == 0 {
		t.Fatal("stalled primaries produced zero hedges (repaired replicas never served reads)")
	}
}

// TestTornResyncReadyzHeals: while repairs keep tearing (injected
// resync-error), demoted replicas stay demoted and /readyz reports
// not-ready with per-shard detail; healing the storage fault lets the
// backoff-paced loop finish a repair and flip readiness back.
func TestTornResyncReadyzHeals(t *testing.T) {
	const initial = 90
	cfg := Config{
		Workers:        2,
		ResyncInterval: 10 * time.Millisecond,
		Faults: fault.Config{Seed: 29, Rules: []fault.Rule{
			{Point: fault.AppendError, Shard: fault.Any, Replica: 1, Prob: 1},
			{Point: fault.ResyncError, Shard: fault.Any, Replica: 1, Prob: 1},
		}},
	}
	sdb, svc := synthReplicated(t, 2, 2, initial, cfg)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	getReady := func() (int, struct {
		Ready     bool              `json:"ready"`
		OutOfSync []core.ReplicaLag `json:"out_of_sync"`
	}) {
		t.Helper()
		var body struct {
			Ready     bool              `json:"ready"`
			OutOfSync []core.ReplicaLag `json:"out_of_sync"`
		}
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := getReady(); code != http.StatusOK || !body.Ready {
		t.Fatalf("fresh service /readyz = %d ready=%v, want 200 ready", code, body.Ready)
	}

	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := sc.Append(synthPatch(initial + i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(sdb.OutOfSyncReplicas()) == 0 {
		t.Fatal("appends with a dead secondary demoted nothing")
	}
	// Give the loop several sweeps' worth of torn repair attempts.
	time.Sleep(60 * time.Millisecond)
	if resyncs, _ := sdb.ResyncStats(); resyncs != 0 {
		t.Fatalf("torn resyncs promoted replicas: %d completions", resyncs)
	}
	code, body := getReady()
	if code != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("/readyz during torn repairs = %d ready=%v, want 503 not-ready", code, body.Ready)
	}
	if len(body.OutOfSync) == 0 || body.OutOfSync[0].Replica != 1 {
		t.Fatalf("/readyz detail = %+v, want replica-1 lags", body.OutOfSync)
	}

	// Heal the storage fault: the next (backoff-paced) repair succeeds.
	sdb.SetFaults(nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := getReady()
		if code == http.StatusOK && body.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never recovered: %d %+v", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resyncs, rows := sdb.ResyncStats()
	if resyncs == 0 || rows == 0 {
		t.Fatalf("healed with resyncs=%d rows=%d, want both nonzero", resyncs, rows)
	}
}

// deadShard fails every fragment attempt on every replica of one shard.
func deadShard(seed int64, shard int) fault.Config {
	return fault.Config{Seed: seed, Rules: []fault.Rule{
		{Point: fault.FragmentError, Shard: shard, Replica: fault.Any, Prob: 1},
	}}
}

// TestDegradedHTTPResponseShape: the JSON surface carries the
// degradation annotation verbatim.
func TestDegradedHTTPResponseShape(t *testing.T) {
	_, svc := synthReplicated(t, 2, 2, 80, Config{Workers: 2, Faults: deadShard(19, 0)})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/query", "application/json",
		bytes.NewBufferString(`{"collection":"`+shardTestCol+`","allow_partial":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("allow_partial over a dead shard = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Value         int   `json:"value"`
		Degraded      bool  `json:"degraded"`
		MissingShards []int `json:"missing_shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Degraded || len(body.MissingShards) != 1 || body.MissingShards[0] != 0 {
		t.Fatalf("degraded JSON = %+v, want degraded with missing shard 0", body)
	}
}

// TestJoinTaskReadsFragmentSnapshot: an indexed similarity join probes
// the vector index at its fragment's own snapshot. A device stall holds
// the join task after the fragment has run while an append lands rows
// within eps of existing ones; the pair count must stay the join over
// the pre-append rows. The shard is large enough to sample its tree, and
// the synthetic rows' 7 clusters make the index join the cheapest.
func TestJoinTaskReadsFragmentSnapshot(t *testing.T) {
	const rows = 1200
	_, svc := synthUnsharded(t, rows, Config{Workers: 1, Faults: fault.Config{Seed: 31, Rules: []fault.Rule{
		{Point: fault.DeviceStall, Shard: fault.Any, Replica: fault.Any, Prob: 1, Stall: 200 * time.Millisecond},
	}}})
	req := Request{Collection: shardTestCol, NoCache: true, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2, UseIndex: true}}
	want := mustQuery(t, svc, req)
	if !strings.Contains(want.Plan, "join-index") {
		t.Fatalf("plan %q: the index join did not run", want.Plan)
	}

	type result struct {
		r   *Response
		err error
	}
	done := make(chan result, 1)
	go func() {
		r, err := svc.Query(context.Background(), req)
		done <- result{r, err}
	}()
	// The stall fires once the fragment has snapshotted: append then.
	deadline := time.Now().Add(5 * time.Second)
	for svc.inj.Fired(fault.DeviceStall) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("join task never reached the device stall")
		}
		time.Sleep(time.Millisecond)
	}
	added := AppendRequest{Collection: shardTestCol}
	for i := rows; i < rows+14; i++ {
		added.Patches = append(added.Patches, specFromPatch(synthPatch(i)))
	}
	if _, err := svc.Append(context.Background(), added); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.r.Value != want.Value {
		t.Fatalf("join racing an append = %d pairs, want %d (the fragment's snapshot)", res.r.Value, want.Value)
	}
	// Non-vacuous: over the post-append rows the join does grow.
	if after := mustQuery(t, svc, req); after.Value <= want.Value {
		t.Fatalf("post-append join = %d pairs, want more than %d", after.Value, want.Value)
	}
}

// TestAppendBatchStorageFaults: a 64-row /append on 3 shards x 2
// replicas under a certain append fault on shard 1. On its primary the
// request is a 500: shard 0, committed first, holds its whole part,
// shards 1 and 2 none of theirs, and the error's committed count is the
// rows visible. On its secondary the batch commits, the replica is
// demoted, and a resync streams the part it missed (through
// AppendBatch) and promotes it.
func TestAppendBatchStorageFaults(t *testing.T) {
	const initial, batch = 60, 64
	for _, replica := range []int{0, 1} {
		sdb, svc := synthReplicated(t, 3, 2, initial, Config{Workers: 2, ResyncInterval: -1})
		sc, err := sdb.Collection(shardTestCol)
		if err != nil {
			t.Fatal(err)
		}
		sdb.SetFaults(fault.New(fault.Config{Seed: 1, Rules: []fault.Rule{
			{Point: fault.AppendError, Shard: 1, Replica: replica, Prob: 1},
		}}))
		// The batch takes the 64 ids after this one, so each shard's part
		// is known before it commits.
		last := sdb.NewPatchID()
		var part, before [3][2]int
		req := AppendRequest{Collection: shardTestCol}
		for i := 0; i < batch; i++ {
			req.Patches = append(req.Patches, specFromPatch(synthPatch(initial+i)))
			part[sdb.ShardFor(last+core.PatchID(i)+1)][0]++
		}
		for k := range part {
			if part[k][0] == 0 {
				t.Fatalf("shard %d takes no row of the batch; the test is vacuous", k)
			}
			part[k][1] = part[k][0]
			for j := range before[k] {
				before[k][j] = sc.Replica(k, j).Len()
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append", bytes.NewReader(body)))
		want := part // what each replica gains
		if replica == 0 {
			want[1], want[2] = [2]int{}, [2]int{}
			msg := fmt.Sprintf("%d of %d patches committed", part[0][0], batch)
			if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), msg) {
				t.Fatalf("primary fault: status %d, body %s; want 500 saying %q", rec.Code, rec.Body, msg)
			}
		} else {
			want[1][1] = 0
			if rec.Code != http.StatusOK {
				t.Fatalf("secondary fault: status %d, body %s; want 200", rec.Code, rec.Body)
			}
		}
		for k := range want {
			for j := range want[k] {
				if got := sc.Replica(k, j).Len() - before[k][j]; got != want[k][j] {
					t.Errorf("replica %d fault: shard %d replica %d gained %d rows of its %d-row part, want %d",
						replica, k, j, got, part[k][j], want[k][j])
				}
			}
		}
		if replica == 0 {
			continue
		}
		if got := sdb.InSyncReplicas(1); len(got) != 1 {
			t.Fatalf("shard 1 in sync %v after its secondary failed, want the primary only", got)
		}
		sdb.SetFaults(nil)
		if n, err := sdb.ResyncReplica(context.Background(), 1, 1); err != nil || n != part[1][1] {
			t.Fatalf("resync streamed %d rows (%v), want the missed part's %d", n, err, part[1][1])
		}
		if got := sdb.InSyncReplicas(1); len(got) != 2 || sc.Replica(1, 1).Len() != sc.Replica(1, 0).Len() {
			t.Fatalf("after the resync shard 1 in sync %v, replica %d rows, primary %d",
				got, sc.Replica(1, 1).Len(), sc.Replica(1, 0).Len())
		}
	}
}
