package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Admission suite: queries wait in a FIFO of Config.QueueDepth and are
// refused only when it is full; appends pass a separate non-blocking
// gate of max(2, workers) slots, so a wedged read path can never
// deadlock writes.

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

// TestAdmissionUnitBehavior pins the append gate's capacity: of eight
// concurrent claims exactly max(2, workers) get a slot and the rest are
// refused without blocking, and a released slot is reusable.
func TestAdmissionUnitBehavior(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, svc := synthUnsharded(t, 10, Config{Workers: workers})
		slots := max(2, workers)
		var granted atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if svc.tryAppendSlot() {
					granted.Add(1)
				}
			}()
		}
		wg.Wait()
		if got := granted.Load(); got != int64(slots) {
			t.Fatalf("workers=%d: gate granted %d of 8 concurrent claims, want %d", workers, got, slots)
		}
		svc.releaseAppendSlot()
		if !svc.tryAppendSlot() {
			t.Fatalf("workers=%d: released slot not reusable", workers)
		}
		for i := 0; i < slots; i++ {
			svc.releaseAppendSlot()
		}
	}
}

// TestRejectionCountedOnce: a query refused at a full queue counts in
// rejected only, and an append refused at the saturated append gate in
// admission_shed only — in /stats and on /metrics alike.
func TestRejectionCountedOnce(t *testing.T) {
	stallAll := fault.Config{Seed: 41, Rules: []fault.Rule{
		{Point: fault.FragmentStall, Shard: fault.Any, Replica: fault.Any, Prob: 1, Stall: 5 * time.Second},
	}}
	_, svc := synthReplicated(t, 1, 1, 30, Config{Workers: 1, QueueDepth: 1, Faults: stallAll})
	ctx := context.Background()

	// Wedge the worker, then the one queue slot, one stalled query at a
	// time, so no wedger is ever rejected.
	wedgeCtx, unwedge := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer unwedge()
	for _, filled := range []func(Stats) bool{
		func(st Stats) bool { return st.InFlight == 1 && st.QueueDepth == 0 },
		func(st Stats) bool { return st.InFlight == 2 && st.QueueDepth == 1 },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = svc.Query(wedgeCtx, Request{Collection: shardTestCol, NoCache: true})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for !filled(svc.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("worker + queue never filled: %+v", svc.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	if _, err := svc.Query(ctx, Request{Collection: shardTestCol, NoCache: true}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("query over a full queue = %v, want ErrOverloaded", err)
	}
	held := 0
	for svc.tryAppendSlot() {
		held++
	}
	defer func() {
		for ; held > 0; held-- {
			svc.releaseAppendSlot()
		}
	}()
	_, err := svc.Append(ctx, AppendRequest{Collection: shardTestCol, Patches: []PatchSpec{specFromPatch(synthPatch(30))}})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("append past a saturated gate = %v, want ErrOverloaded", err)
	}

	if st := svc.Stats(); st.Rejected != 1 || st.AdmissionShed != 1 {
		t.Fatalf("stats rejected=%d admission_shed=%d, want 1 and 1", st.Rejected, st.AdmissionShed)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	exp, err := obs.CheckExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"deeplens_queries_rejected_total", "deeplens_admission_shed_total"} {
		if v, ok := exp.Value(name, nil); !ok || v != 1 {
			t.Fatalf("%s = %v (found=%v), want 1", name, v, ok)
		}
	}
}
