//go:build goexperiment.synctest

package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
)

// On/off ablations of the serving layer's fault-tolerance mechanisms,
// run in testing/synctest bubbles. Every fault stall, hedge budget,
// query deadline and repair sweep runs on the bubble's
// synthetic clock, and query work itself takes no synthetic time, so
// each table is a function of the fault seed alone and prints the same
// on every run:
//
//	GOEXPERIMENT=synctest go test -run Ablation -v ./internal/service

// bubbleService builds an n-shard, r-replica service over rows synthetic
// rows. Call it inside a bubble and call the returned close there too:
// the service's goroutines, timers and channels belong to the bubble.
func bubbleService(t *testing.T, n, r, rows int, cfg Config) (*core.Sharded, *Service, func()) {
	t.Helper()
	sdb, err := core.OpenShardedReplicas(filepath.Join(t.TempDir(), "replicated"), n, r, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sdb.CreateCollection(shardTestCol, synthSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillSynth(t, sc.Append, rows)
	svc, err := NewSharded(sdb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sdb, svc, func() {
		svc.Close()
		sdb.Close()
	}
}

// inBubble runs f in a synctest bubble and returns its result. The
// result leaves on a channel made outside the bubble, because the race
// detector sees no ordering from synctest.Run's return.
func inBubble[T any](f func() T) T {
	out := make(chan T, 1)
	synctest.Run(func() { out <- f() })
	return <-out
}

// ablationQuery counts every row, never from the result cache, and may
// answer without a shard its 100 ms deadline cut off.
const ablationQuery = `{"collection":"` + shardTestCol + `","no_cache":true,"allow_partial":true,"timeout_ms":100}`

// queryRun is one arm's outcome over a run of sequential queries.
type queryRun struct {
	failed, degraded int
	attempts         int64 // scatter_tasks + hedged_fragments + fragment_retries
	p50, p99         time.Duration
}

// runQueries sends n sequential ablationQuery requests through the
// handler and reads each one's synthetic latency.
func runQueries(t *testing.T, svc *Service, n int) queryRun {
	t.Helper()
	var run queryRun
	lat := make([]time.Duration, 0, n)
	h := svc.Handler()
	for i := 0; i < n; i++ {
		start := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(ablationQuery)))
		lat = append(lat, time.Since(start))
		if rec.Code != http.StatusOK {
			run.failed++
			continue
		}
		var body struct {
			Degraded bool `json:"degraded"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Degraded {
			run.degraded++
		}
	}
	st := svc.Stats()
	run.attempts = st.ScatterTasks + st.HedgedFragments + st.FragmentRetries
	slices.Sort(lat)
	run.p50, run.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	return run
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(float64(len(sorted))*q+0.999999) - 1
	return sorted[max(i, 0)]
}

// everyReplica arms point with probability p on every shard and replica.
func everyReplica(point fault.Point, p float64, stall time.Duration) fault.Config {
	return fault.Config{Seed: 1, Rules: []fault.Rule{
		{Point: point, Shard: fault.Any, Replica: fault.Any, Prob: p, Stall: stall},
	}}
}

// TestHedgeAblation: N=3, R=2, every replica stalls a fragment for
// 200 ms with probability p. Hedging after 10, 25, 50 and 100 ms against
// no hedging. Inside the bubble a fragment's own work takes no time, so
// every budget below the stall hedges exactly the stalled fragments:
// 10, 25 and 50 ms tie on failed, degraded and attempts, and 100 ms
// (the query deadline) hedges nothing. What hedging too soon costs, a
// second read of a fragment that is merely slow, cannot show here, so
// the table does not choose between 10, 25 and 50 ms; the 25 ms default
// is unverified until a workload with R > 1 measures fragment latency.
func TestHedgeAblation(t *testing.T) {
	const queries = 200
	type arm struct {
		name  string
		after time.Duration
	}
	arms := []arm{{"off", -1}}
	for _, ms := range []int{10, 25, 50, 100} {
		arms = append(arms, arm{fmt.Sprintf("hedge %dms", ms), time.Duration(ms) * time.Millisecond})
	}
	def := (Config{}).withDefaults(1).HedgeAfter
	var tab strings.Builder
	tab.WriteString("| stall p | arm | failed | degraded | attempts | p50 | p99 |\n|---|---|---|---|---|---|---|\n")
	for _, p := range []float64{0.05, 0.2, 0.5} {
		runs := make([]queryRun, len(arms))
		for i, arm := range arms {
			runs[i] = inBubble(func() queryRun {
				_, svc, closeAll := bubbleService(t, 3, 2, 120, Config{Workers: 2, HedgeAfter: arm.after,
					Faults: everyReplica(fault.FragmentStall, p, 200*time.Millisecond)})
				defer closeAll()
				return runQueries(t, svc, queries)
			})
			r := runs[i]
			fmt.Fprintf(&tab, "| %.2f | %s | %d | %d | %d | %v | %v |\n",
				p, arm.name, r.failed, r.degraded, r.attempts, r.p50, r.p99)
		}
		// The win: the default budget never fails, degrades or waits
		// more than no hedging, and degrades fewer responses at every
		// stall probability.
		on, off := runs[slices.IndexFunc(arms, func(a arm) bool { return a.after == def })], runs[0]
		if on.failed > off.failed || on.degraded >= off.degraded || on.p99 > off.p99 {
			t.Errorf("p=%.2f: hedging %+v does not beat no hedging %+v", p, on, off)
		}
	}
	t.Log("hedging, 200 sequential counts\n" + tab.String())
}

// readyz returns the /readyz status code h serves.
func readyz(h http.Handler) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	return rec.Code
}

// wedged is one wedge run's outcome: the repair attempts made while
// the fault was armed, and the synthetic time from its clearing to
// /readyz 200.
type wedged struct {
	attempts int64
	heal     time.Duration
}

// runWedge: N=2, R=2, sweeping every interval. Replica 1 of each shard
// misses appends, and every repair of it fails for the given time; then
// the fault clears, half a millisecond after a sweep: the replica then
// waits the longest for the next one.
func runWedge(t *testing.T, wedge, interval time.Duration) wedged {
	return inBubble(func() wedged {
		sdb, svc, closeAll := bubbleService(t, 2, 2, 60, Config{Workers: 2, ResyncInterval: interval})
		defer closeAll()
		// Start just off the sweep grid, so no sweep shares an instant
		// with the fault's arming or clearing.
		time.Sleep(time.Millisecond / 2)
		inj := fault.New(fault.Config{Seed: 1, Rules: []fault.Rule{
			{Point: fault.AppendError, Shard: fault.Any, Replica: 1, Prob: 1},
			{Point: fault.ResyncError, Shard: fault.Any, Replica: 1, Prob: 1},
		}})
		sdb.SetFaults(inj)
		sc, err := sdb.Collection(shardTestCol)
		if err != nil {
			t.Fatal(err)
		}
		for i := 60; i < 90; i++ {
			if err := sc.Append(synthPatch(i)); err != nil {
				t.Fatal(err)
			}
		}
		if len(sdb.OutOfSyncReplicas()) != 2 {
			t.Fatalf("lagging replicas = %+v, want replica 1 of both shards", sdb.OutOfSyncReplicas())
		}
		time.Sleep(wedge)
		attempts := inj.Fired(fault.ResyncError)
		sdb.SetFaults(nil)
		cleared := time.Now()
		// Poll every half millisecond, a quarter off the sweeps' grid. A
		// replica heals only on a sweep, so the reading is a quarter
		// millisecond late at most.
		h := svc.Handler()
		for time.Sleep(time.Millisecond / 4); readyz(h) != http.StatusOK; {
			time.Sleep(time.Millisecond / 2)
		}
		return wedged{attempts, time.Since(cleared)}
	})
}

// TestRepairWedge: the repair loop over 2, 10 and 60 s wedges of two
// replicas, sweeping every 100, 200 and 400 ms. A failed repair is
// retried on the next sweep, so the loop makes one attempt per lagging
// replica per sweep while the fault holds, and /readyz reads 200 on the
// first sweep after it clears. The rule for defaultResyncInterval, fixed
// before the sweep ran: the largest interval whose clear-to-/readyz is
// at most 250 ms after every wedge, the fault clearing just after a
// sweep.
func TestRepairWedge(t *testing.T) {
	const readyWithin = 250 * time.Millisecond
	var tab strings.Builder
	tab.WriteString("| interval | wedge | attempts while wedged | clear to /readyz 200 |\n|---|---|---|---|\n")
	var pick time.Duration
	for _, interval := range []time.Duration{100 * time.Millisecond, defaultResyncInterval, 400 * time.Millisecond} {
		ready := true
		for _, wedge := range []time.Duration{2 * time.Second, 10 * time.Second, 60 * time.Second} {
			w := runWedge(t, wedge, interval)
			fmt.Fprintf(&tab, "| %v | %v | %d | %v |\n", interval, wedge, w.attempts, w.heal)
			if want := 2 * int64(wedge/interval); w.attempts != want || w.heal > interval {
				t.Errorf("%v interval, %v wedge: %d attempts, healed in %v; want %d, within %v",
					interval, wedge, w.attempts, w.heal, want, interval)
			}
			ready = ready && w.heal <= readyWithin
		}
		if ready {
			pick = interval
		}
	}
	t.Logf("repair, 2 lagging replicas wedged; the rule picks %v\n%s", pick, tab.String())
	if pick != defaultResyncInterval {
		t.Errorf("defaultResyncInterval is %v, the rule picks %v", defaultResyncInterval, pick)
	}
}

// TestRepairForgetsLevelReplicasBackoff: a replica whose repairs failed
// for seconds, and that then became level another way (its lagging
// collection dropped), is repaired on the next sweep when it falls
// behind again: the loop keeps no state from the failures.
func TestRepairForgetsLevelReplicasBackoff(t *testing.T) {
	synctest.Run(func() {
		sdb, _, closeAll := bubbleService(t, 1, 2, 30, Config{Workers: 1})
		defer closeAll()
		oc, err := sdb.CreateCollection("synth.other", synthSchema())
		if err != nil {
			t.Fatal(err)
		}
		sc, err := sdb.Collection(shardTestCol)
		if err != nil {
			t.Fatal(err)
		}
		lagOn := func(c *core.ShardedCollection, rules ...fault.Rule) {
			sdb.SetFaults(fault.New(fault.Config{Seed: 1, Rules: append(rules,
				fault.Rule{Point: fault.AppendError, Shard: fault.Any, Replica: 1, Prob: 1})}))
			if err := c.Append(synthPatch(100)); err != nil {
				t.Fatal(err)
			}
		}
		// Off the sweep grid; then repairs fail on every sweep for 3.2 s.
		time.Sleep(100 * time.Millisecond)
		lagOn(sc, fault.Rule{Point: fault.ResyncError, Shard: fault.Any, Replica: 1, Prob: 1})
		time.Sleep(3200 * time.Millisecond)
		sdb.SetFaults(nil)
		if err := sdb.DropCollection(shardTestCol); err != nil {
			t.Fatal(err)
		}
		if lags := sdb.OutOfSyncReplicas(); len(lags) != 0 {
			t.Fatalf("replicas lag after the drop: %+v", lags)
		}
		time.Sleep(time.Second)
		lagOn(oc)
		sdb.SetFaults(nil)
		time.Sleep(defaultResyncInterval)
		if lags := sdb.OutOfSyncReplicas(); len(lags) != 0 {
			t.Fatalf("replica still lags %+v one interval after falling behind", lags)
		}
	})
}
