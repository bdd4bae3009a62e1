package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The repository's bounds for the gated metrics.
var testBounds = []bound{
	{Name: "alloc_kb_per_op", Better: "lower", Bound: 0.06},
	{Name: "heap_live_mb", Better: "lower", Bound: 0.07},
	{Name: "disk_bytes_per_row", Better: "lower", Bound: 0.07},
}

// values are a run's metrics by workload and metric.
type values map[string]map[string]float64

// baseValues is one committed run; committed runs vary ingest_live's
// allocation by ±5.5% and hold everything else.
func baseValues(alloc float64) values {
	return values{
		"scan_inmem":  {"alloc_kb_per_op": 5.36, "heap_live_mb": 46.0, "disk_bytes_per_row": 43.7, "setup_s": 1.1},
		"ingest_live": {"alloc_kb_per_op": alloc, "heap_live_mb": 7.3, "disk_bytes_per_row": 234.0, "setup_s": 0.1},
	}
}

// doctor returns a copy of v with one metric scaled by f.
func doctor(v values, workload, metric string, f float64) values {
	out := values{}
	for w, ms := range v {
		out[w] = map[string]float64{}
		for m, x := range ms {
			out[w][m] = x
		}
	}
	out[workload][metric] *= f
	return out
}

// docJSON writes v as a benchmark --out document of the given length,
// with the fields the gate ignores (env, rounds, timings) present.
func docJSON(seconds float64, v values, failed int) map[string]any {
	var ws []map[string]any
	for _, name := range []string{"scan_inmem", "ingest_live"} {
		ms := map[string]any{}
		for m, x := range v[name] {
			ms[m] = map[string]any{"value": x, "unit": "u"}
		}
		ws = append(ws, map[string]any{
			"workload": name, "correct": failed == 0, "attempted": 100, "failed": failed,
			"rounds": []any{map[string]any{"wall_s": 0.1}}, "metrics": ms,
			"timings": map[string]any{"service.ops_per_s": map[string]any{"value": 1e3, "unit": "1/s"}},
		})
	}
	return map[string]any{"env": map[string]any{"commit": "x"}, "seed": 1, "seconds": seconds, "trace": false, "workloads": ws}
}

func toDoc(t *testing.T, m map[string]any) document {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func committed(t *testing.T) []document {
	return []document{
		toDoc(t, docJSON(1, baseValues(28.3), 0)),
		toDoc(t, docJSON(1, baseValues(29.9), 0)),
		toDoc(t, docJSON(1, baseValues(31.5), 0)),
	}
}

// TestGateVerdicts: a pair fails only when it is worse than the
// committed median by more than its bound; a better run passes; a pair
// whose committed runs spread by more than half its bound is ungated,
// however far the run moves.
func TestGateVerdicts(t *testing.T) {
	base := committed(t)
	mid := baseValues(29.9)
	for _, tc := range []struct {
		name string
		run  values
		fail string // the one failing pair, workload/metric
	}{
		{"identical", mid, ""},
		{"disk 10% worse", doctor(mid, "scan_inmem", "disk_bytes_per_row", 1.10), "scan_inmem/disk_bytes_per_row"},
		{"disk 6% worse", doctor(mid, "scan_inmem", "disk_bytes_per_row", 1.06), ""},
		{"heap 8% worse", doctor(mid, "ingest_live", "heap_live_mb", 1.08), "ingest_live/heap_live_mb"},
		{"alloc 7% worse", doctor(mid, "scan_inmem", "alloc_kb_per_op", 1.07), "scan_inmem/alloc_kb_per_op"},
		{"heap 30% better", doctor(mid, "scan_inmem", "heap_live_mb", 0.70), ""},
		{"noisy alloc 50% worse", doctor(mid, "ingest_live", "alloc_kb_per_op", 1.5), ""},
		{"setup 10x worse", doctor(mid, "scan_inmem", "setup_s", 10), ""},
	} {
		vs, err := gate(testBounds, base, toDoc(t, docJSON(1, tc.run, 0)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(vs) != 6 {
			t.Fatalf("%s: %d verdicts, want 6", tc.name, len(vs))
		}
		for _, v := range vs {
			pair := v.workload + "/" + v.metric
			if v.failed != (pair == tc.fail) {
				t.Errorf("%s: %v", tc.name, v)
			}
			if ungated := pair == "ingest_live/alloc_kb_per_op"; v.gated == ungated {
				t.Errorf("%s: %s gated %v, want %v (spread %.3f)", tc.name, pair, v.gated, !ungated, v.spread)
			}
		}
	}
}

// TestGateRefusesIncomparableRuns: a run of another length, with a
// failed operation, or missing a workload or a gated metric is an error.
func TestGateRefusesIncomparableRuns(t *testing.T) {
	base := committed(t)
	mid := baseValues(29.9)
	noDisk := doctor(mid, "scan_inmem", "disk_bytes_per_row", 1)
	delete(noDisk["scan_inmem"], "disk_bytes_per_row")
	noIngest := toDoc(t, docJSON(1, mid, 0))
	noIngest.Workloads = noIngest.Workloads[:1]
	for name, run := range map[string]document{
		"10 s run":        toDoc(t, docJSON(10, mid, 0)),
		"failed op":       toDoc(t, docJSON(1, mid, 1)),
		"no disk metric":  toDoc(t, docJSON(1, noDisk, 0)),
		"no ingest_live":  noIngest,
		"empty document":  {Seconds: 1},
		"no seconds read": toDoc(t, docJSON(0, mid, 0)),
	} {
		if _, err := gate(testBounds, base, run); err == nil {
			t.Errorf("%s: gated without an error", name)
		}
	}
	if _, err := gate(testBounds, nil, toDoc(t, docJSON(1, mid, 0))); err == nil {
		t.Error("gated against no committed run")
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunGatesAgainstNewestTrajectory: run reads the repository's
// BENCHMARK.json bounds and the BENCH_<n>.json with the largest n, by
// number, not by name.
func TestRunGatesAgainstNewestTrajectory(t *testing.T) {
	root := t.TempDir()
	spec, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	traj := func(disk float64) map[string]any {
		var ci []any
		for _, a := range []float64{28.3, 29.9, 31.5} {
			ci = append(ci, docJSON(1, doctor(baseValues(a), "scan_inmem", "disk_bytes_per_row", disk), 0))
		}
		return map[string]any{"change": map[string]any{"ci": ci}}
	}
	// BENCH_9 sorts after BENCH_100 by name: its baseline is twice as
	// large, so a run judged against it would pass.
	writeJSON(t, filepath.Join(root, "BENCH_9.json"), traj(2))
	writeJSON(t, filepath.Join(root, "BENCH_100.json"), traj(1))
	writeJSON(t, filepath.Join(root, "BENCH_notes.json"), map[string]any{})
	if got, err := newest(root); err != nil || filepath.Base(got) != "BENCH_100.json" {
		t.Fatalf("newest = %s, %v; want BENCH_100.json", got, err)
	}
	runPath := filepath.Join(root, "run.json")
	var out strings.Builder
	writeJSON(t, runPath, docJSON(1, baseValues(29.9), 0))
	if err := run(root, []string{runPath}, &out); err != nil {
		t.Fatalf("identical run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ungated") || strings.Contains(out.String(), "FAIL") {
		t.Fatalf("identical run printed:\n%s", out.String())
	}
	out.Reset()
	writeJSON(t, runPath, docJSON(1, doctor(baseValues(29.9), "scan_inmem", "disk_bytes_per_row", 1.5), 0))
	if err := run(root, []string{runPath}, &out); err == nil || !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("a run 50%% worse on disk passed: %v\n%s", err, out.String())
	}
	if _, err := newest(t.TempDir()); err == nil {
		t.Fatal("newest found a trajectory in an empty directory")
	}
}

// tracedValues is one committed traced run's per-layer counts.
func tracedValues(rows float64) values {
	return values{
		"scan_inmem": {"core.segment_loads_per_op": 0, "core.rows_scanned_per_op": rows, "kv.pager_reads_per_op": 0,
			"service.result_cache_invalidated_per_append": 0, "service.resp_bytes_per_op": 2024, "core.filter_scan_us": 900},
		"ingest_live": {"core.segment_loads_per_op": 0, "core.rows_scanned_per_op": 15584, "kv.pager_reads_per_op": 29.6,
			"service.result_cache_invalidated_per_append": 7, "service.resp_bytes_per_op": 1521.6, "core.filter_scan_us": 80},
	}
}

// tracedDoc is a traced --out document of v.
func tracedDoc(t *testing.T, v values, failed int) document {
	m := docJSON(1, v, failed)
	m["trace"] = true
	return toDoc(t, m)
}

// TestGateTracedCounts: a traced run is gated on its five per-layer
// counts, at the alloc_kb_per_op bound, against the committed traced
// runs: a count worse by more than the bound fails, a count the
// committed runs all read 0 fails at any nonzero value, a count whose
// committed runs spread is ungated, and a timing is never gated. A
// traced run is not comparable with untraced committed runs.
func TestGateTracedCounts(t *testing.T) {
	var traced []bound
	for _, m := range tracedMetrics {
		traced = append(traced, bound{Name: m, Better: "lower", Bound: 0.06})
	}
	base := []document{tracedDoc(t, tracedValues(200000), 0), tracedDoc(t, tracedValues(200000), 0), tracedDoc(t, tracedValues(200000), 0)}
	noisy := []document{tracedDoc(t, tracedValues(190000), 0), tracedDoc(t, tracedValues(200000), 0), tracedDoc(t, tracedValues(215000), 0)}
	mid := tracedValues(200000)
	for _, tc := range []struct {
		name string
		base []document
		run  values
		fail string // the one failing pair, workload/metric
	}{
		{"identical", base, mid, ""},
		{"pager reads 10% worse", base, doctor(mid, "ingest_live", "kv.pager_reads_per_op", 1.10), "ingest_live/kv.pager_reads_per_op"},
		{"pager reads 5% worse", base, doctor(mid, "ingest_live", "kv.pager_reads_per_op", 1.05), ""},
		{"invalidations 2x", base, doctor(mid, "ingest_live", "service.result_cache_invalidated_per_append", 2), "ingest_live/service.result_cache_invalidated_per_append"},
		{"resp bytes 7% worse", base, doctor(mid, "scan_inmem", "service.resp_bytes_per_op", 1.07), "scan_inmem/service.resp_bytes_per_op"},
		{"rows scanned halved", base, doctor(mid, "scan_inmem", "core.rows_scanned_per_op", 0.5), ""},
		{"filter scan 10x slower", base, doctor(mid, "scan_inmem", "core.filter_scan_us", 10), ""},
		{"noisy rows scanned 50% worse", noisy, doctor(mid, "scan_inmem", "core.rows_scanned_per_op", 1.5), ""},
	} {
		vs, err := gate(traced, tc.base, tracedDoc(t, tc.run, 0))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(vs) != 10 {
			t.Fatalf("%s: %d verdicts, want 10", tc.name, len(vs))
		}
		for _, v := range vs {
			pair := v.workload + "/" + v.metric
			if v.failed != (pair == tc.fail) {
				t.Errorf("%s: %v", tc.name, v)
			}
		}
	}
	fromZero := tracedValues(200000)
	fromZero["scan_inmem"]["core.segment_loads_per_op"] = 0.5
	vs, err := gate(traced, base, tracedDoc(t, fromZero, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.failed != (v.workload == "scan_inmem" && v.metric == "core.segment_loads_per_op") {
			t.Errorf("segment loads 0 -> 0.5: %v", v)
		}
	}
	if _, err := gate(traced, base, toDoc(t, docJSON(1, mid, 0))); err == nil {
		t.Error("an untraced run gated against traced committed runs")
	}
	if _, err := gate(traced, base, tracedDoc(t, mid, 1)); err == nil {
		t.Error("a traced run with a failed operation gated")
	}
}

// TestRunGatesTracedRunAgainstTracedBaseline: run gates each document by
// its kind, an untraced one against "ci" and a traced one against
// "ci_traced", and fails when either has a pair past its bound.
func TestRunGatesTracedRunAgainstTracedBaseline(t *testing.T) {
	root := t.TempDir()
	spec, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	tracedJSON := func(v values) map[string]any {
		m := docJSON(1, v, 0)
		m["trace"] = true
		return m
	}
	var ci, ciTraced []any
	for _, a := range []float64{28.3, 29.9, 31.5} {
		ci = append(ci, docJSON(1, baseValues(a), 0))
		ciTraced = append(ciTraced, tracedJSON(tracedValues(200000)))
	}
	writeJSON(t, filepath.Join(root, "BENCH_49.json"), map[string]any{"change": map[string]any{"ci": ci, "ci_traced": ciTraced}})
	untraced, tracedPath := filepath.Join(root, "run.json"), filepath.Join(root, "traced.json")
	writeJSON(t, untraced, docJSON(1, baseValues(29.9), 0))
	writeJSON(t, tracedPath, tracedJSON(tracedValues(200000)))
	var out strings.Builder
	if err := run(root, []string{untraced, tracedPath}, &out); err != nil {
		t.Fatalf("identical runs: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ci_traced") || !strings.Contains(out.String(), "kv.pager_reads_per_op") {
		t.Fatalf("the traced run was not gated on its counts:\n%s", out.String())
	}
	out.Reset()
	writeJSON(t, tracedPath, tracedJSON(doctor(tracedValues(200000), "ingest_live", "kv.pager_reads_per_op", 1.2)))
	if err := run(root, []string{untraced, tracedPath}, &out); err == nil || !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("a traced run 20%% worse on pager reads passed: %v\n%s", err, out.String())
	}
}
