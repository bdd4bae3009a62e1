package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeConfig is the -smoke shape of a workload: rows/100, one set-up,
// one round, every response checked.
func smokeConfig(t *testing.T, w *workload, seed int64) *runConfig {
	return &runConfig{w: w, seed: seed, seconds: defaultSeconds, scale: 100, rounds: 1, setups: 1, verify: true, dataDir: t.TempDir()}
}

// planDigest hashes everything a plan would send and store.
func planDigest(p *plan) uint64 {
	h := fnv.New64a()
	for _, r := range p.fixture {
		fmt.Fprintf(h, "%d|%s|%x|%d|%v\n", r.frame, r.label, math.Float64bits(r.score), r.rank, r.emb)
	}
	for _, ops := range append([][]*op{p.warm}, p.rounds...) {
		for _, o := range ops {
			h.Write([]byte(o.path()))
			h.Write(o.body)
		}
	}
	return h.Sum64()
}

func TestSameSeedSamePlan(t *testing.T) {
	for _, w := range workloads {
		a := planDigest(smokeConfig(t, w, 7).newPlan())
		b := planDigest(smokeConfig(t, w, 7).newPlan())
		c := planDigest(smokeConfig(t, w, 8).newPlan())
		if a != b {
			t.Errorf("%s: the same seed gave two different plans", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w.name)
		}
	}
}

func TestEstimators(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	if got := worseBy("higher", 100, 90); got != 0.1 {
		t.Errorf("a throughput falling 100 -> 90 is worse by %g, want 0.1", got)
	}
	if got := worseBy("lower", 100, 90); got != -0.1 {
		t.Errorf("a latency falling 100 -> 90 is worse by %g, want -0.1", got)
	}
}

// TestWrongResponseIsAFailedOp proves the oracle is live: a real
// response passes, deliberately wrong ones do not, and a mismatch found
// by the deferred check turns the op into a failed one without a
// latency sample.
func TestWrongResponseIsAFailedOp(t *testing.T) {
	c := smokeConfig(t, workloadNamed("scan_inmem"), 3)
	p := c.newPlan()
	in, _, _, err := c.prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if in.warm.failed != 0 {
		t.Fatalf("warm-up failed %d ops: %v", in.warm.failed, in.warm.firstErr)
	}
	var topk, count *op
	for _, o := range p.rounds[0] {
		switch o.shape {
		case "score_range_topk":
			topk = o
		case "rank_range_count":
			count = o
		}
	}
	if topk == nil || count == nil {
		t.Fatal("round 1 lacks a top-k or a count request")
	}
	cl := newClient(in.h)
	for _, o := range []*op{topk, count} {
		cl.serve(o)
		good := append([]byte(nil), cl.sink.body...)
		if err := in.o.check(&o.query, good); err != nil {
			t.Fatalf("%s: the real response was rejected: %v", o.shape, err)
		}
		var resp map[string]any
		if err := json.Unmarshal(good, &resp); err != nil {
			t.Fatal(err)
		}
		resp["value"] = resp["value"].(float64) + 1
		wrong, _ := json.Marshal(resp)
		if in.o.check(&o.query, wrong) == nil {
			t.Errorf("%s: a response with value+1 passed the oracle", o.shape)
		}
	}
	// Swap the first two rows of the ordered response.
	cl.serve(topk)
	var resp struct {
		Value int              `json:"value"`
		Rows  []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(cl.sink.body, &resp); err != nil || len(resp.Rows) < 2 {
		t.Fatalf("top-k response has %d rows (%v)", len(resp.Rows), err)
	}
	resp.Rows[0], resp.Rows[1] = resp.Rows[1], resp.Rows[0]
	swapped, _ := json.Marshal(resp)
	if in.o.check(&topk.query, swapped) == nil {
		t.Error("a top-k response with two rows swapped passed the oracle")
	}

	res := &passResult{ops: []*op{topk}, lat: []time.Duration{time.Millisecond}, kept: []kept{{0, topk, swapped}}}
	in.verify(res)
	if res.failed != 1 || res.firstErr == nil {
		t.Errorf("the wrong response counted %d failed ops (%v), want 1", res.failed, res.firstErr)
	}
	if got := res.latencies(opQuery); len(got) != 0 {
		t.Errorf("the failed op kept its latency sample: %v", got)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs from endToEndSpecs:\n%+v\n%+v", b.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs from perLayerSpecs:\n%+v\n%+v", b.PerLayer, perLayerSpecs)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is declared as %+v, implemented as %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command %v, want %v", b.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths %v, want %v", b.Paths, want)
	}
}

// TestBenchmarkJSONLimits checks the limits a malformed file would be
// refused for before a single run.
func TestBenchmarkJSONLimits(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range b.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Error("a list or run_seconds is out of range")
	}
}

// TestSmoke runs all four workloads untraced and traced at rows/100:
// every declared metric comes out under its declared unit, nothing
// undeclared does, every response satisfies the oracle, and the whole
// thing stays cheap enough for the ordinary test run.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			specs, tr := endToEndSpecs, (*tracer)(nil)
			if traced {
				specs, tr = perLayerSpecs, &tracer{t0: time.Now()}
			}
			res, err := smokeConfig(t, w, 5).run(tr)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s: %d of %d ops failed: %s", w.name, res.Failed, res.Attempted, res.FirstError)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s: %d metrics reported, %d declared", w.name, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := res.Metrics[s.Name]
				if !ok || v.Unit != s.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s reported as %+v (present %v), declared in %s", w.name, s.Name, v, ok, s.Unit)
				}
				if tr == nil && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g; they must never be 0", w.name, s.Name, v.Value)
				}
			}
			if tr != nil && len(tr.spans) == 0 {
				t.Errorf("%s: the traced run recorded no spans", w.name)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke took %v, want under 10s", d)
	}
}
