package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// Admission suite: the adaptive cost-classed gate. Slow observed drain
// shrinks the effective queue; past that watermark expensive classes
// shed with a cost-aware Retry-After while cheap point lookups still
// admit; appends pass a separate non-blocking gate so a wedged read
// path can never deadlock writes.

// wedgeUntilFull launches stalled queries via launch until the worker
// and at least one queue slot both hold one, retrying rejections — a
// wedger can race the worker's dequeue and bounce off the hard limit.
func wedgeUntilFull(t *testing.T, svc *Service, wg *sync.WaitGroup, launch func()) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := svc.Stats()
		if st.InFlight >= 1 && st.QueueDepth >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("worker + queue never filled")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			launch()
		}()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionShedsExpensiveFirst: wedge a one-worker service with
// stalled similarity joins until the drain estimator shrinks the
// effective depth to the worker count, then probe with an expensive
// join (shed, 429-class rejection) and a cheap point filter (admitted
// and answered).
func TestAdmissionShedsExpensiveFirst(t *testing.T) {
	stallAll := fault.Config{Seed: 31, Rules: []fault.Rule{
		{Point: fault.FragmentStall, Shard: fault.Any, Replica: fault.Any, Prob: 1, Stall: 400 * time.Millisecond},
	}}
	_, svc := synthReplicated(t, 1, 1, 60, Config{Workers: 1, QueueDepth: 8, Faults: stallAll})
	ctx := context.Background()
	join := Request{Collection: shardTestCol, NoCache: true,
		SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}}

	// One stalled join completes (~400ms): the drain EWMA now says the
	// pool clears ~0.6 tasks per targetQueueDelay, so the effective
	// depth collapses to the worker count.
	if _, err := svc.Query(ctx, join); err != nil {
		t.Fatal(err)
	}
	if d := svc.Stats().EffectiveQueueDepth; d != 1 {
		t.Fatalf("effective depth after slow drain = %d, want 1", d)
	}

	// Wedge: one join on the worker, one in the queue. Launch wedgers
	// until both spots hold — a wedger arriving before the worker
	// dequeues its predecessor is rejected and simply retried.
	var wg sync.WaitGroup
	defer wg.Wait()
	wedgeUntilFull(t, svc, &wg, func() { _, _ = svc.Query(ctx, join) })

	// The expensive probe is priced at the join class EWMA (far above
	// the shed floor) and the queue is past its effective depth: shed,
	// with room still left in the physical queue.
	_, err := svc.Query(ctx, join)
	var oe *OverloadError
	if !errors.As(err, &oe) || !oe.Shed {
		t.Fatalf("expensive join under pressure = %v, want cost-based shed", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("OverloadError does not unwrap to ErrOverloaded: %v", err)
	}
	if oe.RetryAfter < time.Second {
		t.Fatalf("shed Retry-After = %v, want >= 1s", oe.RetryAfter)
	}
	if oe.Class != classJoin {
		t.Fatalf("shed class = %q, want %q", oe.Class, classJoin)
	}

	// A cheap point filter (2ms class seed, below the shed floor) still
	// admits into the remaining physical queue and gets answered.
	cheapDone := make(chan error, 1)
	go func() {
		_, err := svc.Query(ctx, Request{Collection: shardTestCol, NoCache: true,
			Filter: &FilterSpec{Field: "label", Str: strp("car")}})
		cheapDone <- err
	}()
	select {
	case err := <-cheapDone:
		if errors.Is(err, ErrOverloaded) {
			t.Fatalf("cheap filter shed alongside the expensive join: %v", err)
		}
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cheap filter never drained")
	}
	if svc.Stats().AdmissionShed == 0 {
		t.Fatal("admission_shed counter did not move")
	}
}

// TestAppendsNeverDeadlockBehindWedgedReads: with the worker and the
// whole queue wedged on stalled reads, appends must still commit
// promptly — the write gate is a separate non-blocking concurrency cap,
// not a spot in the read queue.
func TestAppendsNeverDeadlockBehindWedgedReads(t *testing.T) {
	stallAll := fault.Config{Seed: 37, Rules: []fault.Rule{
		{Point: fault.FragmentStall, Shard: fault.Any, Replica: fault.Any, Prob: 1, Stall: 2 * time.Second},
	}}
	_, svc := synthReplicated(t, 1, 1, 30, Config{Workers: 1, QueueDepth: 1, Faults: stallAll})
	ctx := context.Background()

	var wg sync.WaitGroup
	defer wg.Wait()
	wedgeUntilFull(t, svc, &wg, func() {
		_, _ = svc.Query(ctx, Request{Collection: shardTestCol, NoCache: true})
	})

	start := time.Now()
	for i := 0; i < 10; i++ {
		resp, err := svc.Append(ctx, AppendRequest{Collection: shardTestCol, Patch: &PatchSpec{
			Source: "synth", Frame: uint64(1000 + i),
			Meta: map[string]any{"label": "car", "score": 1.0, "rank": 1.0,
				"emb": []any{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}},
		}})
		if err != nil {
			t.Fatalf("append %d behind wedged reads: %v", i, err)
		}
		if resp.Appended != 1 {
			t.Fatalf("append %d committed %d patches", i, resp.Appended)
		}
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("10 appends took %v behind wedged reads (write path queued behind reads)", el)
	}
}

// TestAdmissionUnitBehavior pins the gate's arithmetic: effective depth
// clamps, retry-after clamps, and the append gate's capacity.
func TestAdmissionUnitBehavior(t *testing.T) {
	a := newAdmission(2, 64)
	// No observations: no evidence to shrink on.
	if d := a.effectiveDepth(); d != 64 {
		t.Fatalf("cold effective depth = %d, want hard depth 64", d)
	}
	// Fast drain: depth grows past the hard cap and clamps to it.
	for i := 0; i < 10; i++ {
		a.observeDrain(100 * time.Microsecond)
	}
	if d := a.effectiveDepth(); d != 64 {
		t.Fatalf("fast-drain effective depth = %d, want clamp at 64", d)
	}
	// Slow drain: depth collapses but never below the worker count.
	for i := 0; i < 64; i++ {
		a.observeDrain(10 * time.Second)
	}
	if d := a.effectiveDepth(); d != 2 {
		t.Fatalf("slow-drain effective depth = %d, want worker floor 2", d)
	}
	// Retry-After scales with backlog and clamps to [1s, 60s].
	if ra := a.retryAfter(0); ra < retryAfterMin {
		t.Fatalf("retryAfter(0) = %v, below minimum", ra)
	}
	if ra := a.retryAfter(1 << 20); ra != retryAfterMax {
		t.Fatalf("retryAfter(huge) = %v, want clamp at %v", ra, retryAfterMax)
	}
	// The append gate admits exactly appendLimit() concurrent commits,
	// rejects the next without blocking, and frees on release.
	var releases []func()
	for i := 0; i < a.appendLimit(); i++ {
		rel, err := a.admitAppend()
		if err != nil {
			t.Fatalf("append slot %d rejected: %v", i, err)
		}
		releases = append(releases, rel)
	}
	if _, err := a.admitAppend(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated append gate = %v, want overload", err)
	}
	releases[0]()
	releases[0]() // double release is a no-op, not a double free
	if rel, err := a.admitAppend(); err != nil {
		t.Fatalf("released slot not reusable: %v", err)
	} else {
		rel()
	}
	for _, rel := range releases[1:] {
		rel()
	}
}

// TestPriceQueryFragmentFloorByFanOut: the widest-fragment p99 floors a
// query's price only when it fans out over more than one shard. At
// fan-out 1 — through either constructor — the quote stays the class
// estimate, the price New has always given.
func TestPriceQueryFragmentFloorByFanOut(t *testing.T) {
	cfg := Config{Workers: 1}
	_, plain := synthUnsharded(t, 30, cfg)
	_, one := synthSharded(t, 1, 30, cfg)
	_, three := synthSharded(t, 3, 30, cfg)
	req := &Request{Collection: shardTestCol}
	for _, c := range []struct {
		name    string
		svc     *Service
		floored bool
	}{{"New", plain, false}, {"NewSharded(1)", one, false}, {"NewSharded(3)", three, true}} {
		for i := 0; i < hedgeMinSamples; i++ {
			c.svc.tel.fragmentDur.Observe(1) // one-second fragments: far above the class seed
		}
		_, cost := c.svc.priceQuery(req, "")
		if seed := classSeeds[classFilter]; !c.floored && cost != seed {
			t.Errorf("%s: priced %gs, want the class estimate %gs", c.name, cost, seed)
		} else if c.floored && cost < 0.5 {
			t.Errorf("%s: priced %gs, want the ~1s fragment p99 floor", c.name, cost)
		}
	}
}

// TestCacheFamilyHitRate pins the per-family hit accounting that
// admission's cache-aware discount reads.
func TestCacheFamilyHitRate(t *testing.T) {
	c := NewCache(1<<20, time.Minute)
	c.Put("q:a:1", 1, 8)
	c.Put("q:b:1", 1, 8)
	// Family a: two hits, no misses. Family b: one hit, three misses.
	c.Get("q:a:1")
	c.Get("q:a:1")
	c.Get("q:b:1")
	c.Get("q:b:2")
	c.Get("q:b:3")
	c.Get("q:b:4")
	if hr := c.FamilyHitRate("q:a:"); hr != 1 {
		t.Fatalf("family a hit rate = %g, want 1", hr)
	}
	if hr := c.FamilyHitRate("q:b:"); hr != 0.25 {
		t.Fatalf("family b hit rate = %g, want 0.25", hr)
	}
	// Unknown family falls back to the cache-wide rate (3 hits / 6 gets).
	if hr := c.FamilyHitRate("q:zzz:"); hr != 0.5 {
		t.Fatalf("unknown family fell back to %g, want cache-wide 0.5", hr)
	}
}
