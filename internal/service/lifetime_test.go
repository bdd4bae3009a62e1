package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// holdFragments makes every later fragment attempt stall until the
// returned release is called, or the test ends. The workers read the
// injector only for tasks queued after this call.
func holdFragments(t *testing.T, s *Service) (release func()) {
	hold := make(chan struct{})
	s.inj = fault.New(fault.Config{Seed: 1, Rules: []fault.Rule{
		{Point: fault.FragmentStall, Shard: fault.Any, Replica: fault.Any, Prob: 1, Hold: hold},
	}})
	release = sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release) // before the service closes: a failed test frees its worker
	return release
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// flightOpen reports whether a flight is registered under key.
func (s *Service) flightOpen(key string) bool {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return s.inflight[key] != nil
}

// startBlocker runs req on the only worker in the background, its
// fragment held by holdFragments, and returns once that fragment is
// held (the first stall fired) with nothing queued behind it. The
// returned channel delivers its outcome.
func startBlocker(t *testing.T, s *Service, req Request) <-chan *Response {
	t.Helper()
	out := make(chan *Response, 1)
	go func() {
		r, err := s.Query(context.Background(), req)
		if err != nil {
			t.Errorf("blocker: %v", err)
		}
		out <- r
	}()
	// Not the in-flight count: a worker publishes a task's outcome before
	// it counts the task out, so a count of 1 may still be the previous
	// query while req is yet to be queued.
	waitFor(t, "the worker to hold the blocker", func() bool {
		return s.inj.Fired(fault.FragmentStall) == 1 && len(s.queue) == 0
	})
	return out
}

// TestPooledRequestNotReachedByWorker: the Request a pooled decoder
// holds is never what a worker reads. A timed-out caller's task sits in
// the queue behind a query whose fragment a held fault stall keeps on
// the only worker; the caller gets its 504, 200 distinct cache hits
// decode into the decoder it released while the worker is held, and
// more while the released worker reaches that task. The task
// was admitted with its own copy, so it stores nothing under another
// request's key, and the stalled query's result is stored under its own
// key with its own rows. A task whose caller timed out is dropped when
// the worker reaches it: it waits in no queue span, runs no fragment and
// stores no result.
// Run under -race, the test also shows no worker read of the decoder's
// Request racing the hits' writes.
func TestPooledRequestNotReachedByWorker(t *testing.T) {
	_, s := synthSharded(t, 1, 240, Config{Workers: 1})
	h := s.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewBufferString(body)))
		return rec
	}
	const hits = 200
	hitBody := func(i int) string {
		label := []string{"car", "pedestrian", "bus"}[i%3]
		return fmt.Sprintf(`{"collection":%q,"filter":{"field":"label","str":%q},"order_by":"rank","limit":%d}`, shardTestCol, label, 1+i/3)
	}
	hitRows := make([]int, hits)
	for i := range hitRows {
		rec := post(hitBody(i))
		hitRows[i] = len(checkWire(t, "warm-up", rec.Code, rec.Body.Bytes()).Rows)
	}

	blockerReq := Request{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Min: fp(2)}, OrderBy: "score", Limit: 6}
	fresh := blockerReq
	fresh.NoCache = true
	want := mustQuery(t, s, fresh)
	blockerKey, err := s.fingerprintFor(&blockerReq)
	if err != nil {
		t.Fatal(err)
	}

	waits, tasks := s.tel.queueWait.Count(), s.tel.scatterTasks.Value()
	release := holdFragments(t, s)
	blocker := startBlocker(t, s, blockerReq)

	timedOut := fmt.Sprintf(`{"collection":%q,"filter":{"field":"label","str":"bus"},"order_by":"score","limit":4,"timeout_ms":50}`, shardTestCol)
	var timedOutReq Request
	if err := json.Unmarshal([]byte(timedOut), &timedOutReq); err != nil {
		t.Fatal(err)
	}
	timedOutKey, err := s.fingerprintFor(&timedOutReq)
	if err != nil {
		t.Fatal(err)
	}
	if rec := post(timedOut); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query = %d %s, want 504", rec.Code, rec.Body)
	}
	if !s.flightOpen(timedOutKey) {
		t.Fatal("the timed-out query's task is no longer queued: the blocker did not hold the worker")
	}

	released := queryDecoders.Get()
	queryDecoders.Put(released)
	n := 0
	var deadline time.Time
	for ; n < hits || s.flightOpen(timedOutKey); n++ {
		if n == hits {
			if !s.flightOpen(timedOutKey) {
				t.Fatal("the timed-out query's task left the queue while the blocker held the worker")
			}
			release()
			deadline = time.Now().Add(5 * time.Second)
		}
		if n > hits && time.Now().After(deadline) {
			t.Fatal("the released worker never reached the timed-out query's task")
		}
		rec := post(hitBody(n % hits))
		r := checkWire(t, "hit", rec.Code, rec.Body.Bytes())
		if !r.CacheHit || len(r.Rows) != hitRows[n%hits] {
			t.Fatalf("hit %d: cache_hit %v with %d rows, want a hit with %d", n, r.CacheHit, len(r.Rows), hitRows[n%hits])
		}
	}
	if got := queryDecoders.Get(); got != released {
		t.Fatal("the hits did not reuse the decoder the timed-out query released")
	} else {
		queryDecoders.Put(got)
	}

	r := <-blocker
	if r == nil {
		t.FailNow()
	}
	if r.Fingerprint != blockerKey || goldenKey(t, r) != goldenKey(t, &Response{Value: want.Value, Rows: want.Rows, Plan: want.Plan, Fingerprint: blockerKey, EstCostSec: want.EstCostSec}) {
		t.Fatalf("stalled query answered %s, want its own rows under its own key %s", goldenKey(t, r), blockerKey)
	}
	v, ok := s.results.Get(blockerKey)
	if !ok || v.(*Response).Fingerprint != blockerKey || goldenKey(t, v.(*Response)) != goldenKey(t, r) {
		t.Fatal("the stalled query's result is not stored under its own key")
	}
	if _, ok := s.results.Get(timedOutKey); ok {
		t.Fatal("the timed-out query's task stored a result")
	}
	// The dead task returned before its queue span: only the blocker
	// waited in the queue, fanned out and stalled.
	if w, n, f := s.tel.queueWait.Count()-waits, s.tel.scatterTasks.Value()-tasks, s.inj.Fired(fault.FragmentStall); w != 1 || n != 1 || f != 1 {
		t.Fatalf("after the blocker and the timed-out task: %d queue waits, %d scatter tasks, %d stalled fragments; want 1 each (the blocker's)", w, n, f)
	}
	if got := s.results.Len(); got != hits+1 {
		t.Fatalf("result cache holds %d entries, want the %d hits and the stalled query", got, hits+1)
	}
	t.Logf("%d hits reused the decoder while the task waited", n)
}

// TestAppendBetweenKeyAndExecutionLeavesResultUnnamed: a query keyed at
// one collection version whose fragments run after an append moved the
// version answers from the newer rows, unnamed and uncached, because
// the worker compares the collection's version with the one its flight
// recorded.
func TestAppendBetweenKeyAndExecutionLeavesResultUnnamed(t *testing.T) {
	_, s := synthSharded(t, 1, 240, Config{Workers: 1})
	req := Request{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: strp("car")}}
	before := mustQuery(t, s, Request{Collection: req.Collection, Filter: req.Filter, NoCache: true})
	key, err := s.fingerprintFor(&req)
	if err != nil {
		t.Fatal(err)
	}

	release := holdFragments(t, s)
	blocker := startBlocker(t, s, Request{Collection: shardTestCol, NoCache: true})
	type outcome struct {
		r   *Response
		err error
	}
	queued := make(chan outcome, 1)
	go func() {
		r, err := s.Query(context.Background(), req)
		queued <- outcome{r, err}
	}()
	waitFor(t, "the query's flight", func() bool { return s.flightOpen(key) })
	emb := make([]any, 8)
	for i := range emb {
		emb[i] = 0.5
	}
	if _, err := s.Append(context.Background(), AppendRequest{Collection: shardTestCol, Patch: &PatchSpec{
		Source: "synth", Frame: 240, Meta: map[string]any{"label": "car", "score": 1.0, "rank": 2.0, "emb": emb},
	}}); err != nil {
		t.Fatal(err)
	}
	release()
	<-blocker

	got := <-queued
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.r.Fingerprint != "" || got.r.wire != nil {
		t.Fatalf("a result computed past its key's version came back named %q (memo %v)", got.r.Fingerprint, got.r.wire != nil)
	}
	if got.r.Value != before.Value+1 {
		t.Fatalf("value %d, want %d: the fragments ran before the append", got.r.Value, before.Value+1)
	}
	if _, ok := s.results.Get(key); ok {
		t.Fatal("a result computed past its key's version was cached under that key")
	}
	s.inj = nil
	if r := mustQuery(t, s, req); r.Value != before.Value+1 || r.Fingerprint == key || r.Fingerprint == "" {
		t.Fatalf("the next query answered %d under %q, want %d under the new version's key", r.Value, r.Fingerprint, before.Value+1)
	}
}
