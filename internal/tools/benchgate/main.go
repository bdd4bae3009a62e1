// Command benchgate gates short benchmark runs on counts. It compares
// the --out document of a fresh run with the CI-length runs committed in
// the newest BENCH_<n>.json beside BENCHMARK.json. An untraced run is
// gated on alloc_kb_per_op, heap_live_mb and disk_bytes_per_row, at the
// bounds BENCHMARK.json declares, against the committed "ci" runs. A
// traced run (--trace 1) is gated on five per-layer counts (tracedMetrics),
// at the alloc_kb_per_op bound, against the committed "ci_traced" runs.
// Timings are never gated. A run fails a (workload, metric) pair when it
// is worse than the committed runs' median by more than the bound; a
// count the committed runs all read 0 fails at any nonzero value. A pair
// whose committed runs spread by more than half its bound is printed as
// ungated, with its spread.
//
//	bash benchmark/run.sh --seconds 1 --out run.json
//	bash benchmark/run.sh --seconds 1 --trace 1 --out traced.json
//	go run ./internal/tools/benchgate run.json traced.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// gatedMetrics are the host-independent end-to-end counts the gate
// compares in an untraced run.
var gatedMetrics = []string{"alloc_kb_per_op", "heap_live_mb", "disk_bytes_per_row"}

// tracedMetrics are the per-layer counts the gate compares in a traced
// run, each at the bound of tracedBound.
var tracedMetrics = []string{
	"core.segment_loads_per_op",
	"core.rows_scanned_per_op",
	"kv.pager_reads_per_op",
	"service.result_cache_invalidated_per_append",
	"service.resp_bytes_per_op",
}

// tracedBound names the end-to-end metric whose bound the traced counts
// take: like it, they count work per operation.
const tracedBound = "alloc_kb_per_op"

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// document is the part of a benchmark --out document the gate reads.
type document struct {
	Seconds   float64    `json:"seconds"`
	Trace     bool       `json:"trace"`
	Workloads []workload `json:"workloads"`
}

type workload struct {
	Workload string `json:"workload"`
	Correct  bool   `json:"correct"`
	Failed   int    `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// trajectory is the part of a committed BENCH_<n>.json the gate reads:
// the change's CI-length runs, untraced and traced.
type trajectory struct {
	Change struct {
		CI       []document `json:"ci"`
		CITraced []document `json:"ci_traced"`
	} `json:"change"`
}

// verdict is the gate's reading of one (workload, metric) pair.
type verdict struct {
	workload, metric string
	base, spread     float64 // the committed runs' median, and (max-min)/median
	got, worse       float64 // the run's value, and how much worse than base it is, as a share
	bound            float64
	gated, failed    bool
}

func (v verdict) String() string {
	head := fmt.Sprintf("%-13s %-44s", v.workload, v.metric)
	if !v.gated {
		return fmt.Sprintf("%s ungated: committed runs spread %.1f%%, above half its %.0f%% bound (run %.4g, median %.4g)",
			head, 100*v.spread, 100*v.bound, v.got, v.base)
	}
	state := "ok"
	if v.failed {
		state = "FAIL"
	}
	return fmt.Sprintf("%s median %.4g (spread %.1f%%), run %.4g: %+.1f%% worse, bound %.0f%%  %s",
		head, v.base, 100*v.spread, v.got, 100*v.worse, 100*v.bound, state)
}

func main() {
	root := flag.String("root", ".", "directory holding BENCHMARK.json and the committed BENCH_<n>.json files")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-root DIR] RUN.json...")
		os.Exit(2)
	}
	if err := run(*root, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}

// run gates the documents at runPaths against the newest trajectory
// under root, each by its kind, printing a line per pair to w.
func run(root string, runPaths []string, w io.Writer) error {
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		return err
	}
	var bounds, traced []bound
	for _, b := range spec.EndToEnd {
		if slices.Contains(gatedMetrics, b.Name) {
			bounds = append(bounds, b)
		}
		if b.Name == tracedBound {
			for _, m := range tracedMetrics {
				traced = append(traced, bound{Name: m, Better: "lower", Bound: b.Bound})
			}
		}
	}
	if len(bounds) != len(gatedMetrics) || len(traced) != len(tracedMetrics) {
		return fmt.Errorf("BENCHMARK.json bounds %d of the %d gated metrics %v", len(bounds), len(gatedMetrics), gatedMetrics)
	}
	basePath, err := newest(root)
	if err != nil {
		return err
	}
	var traj trajectory
	if err := readJSON(basePath, &traj); err != nil {
		return err
	}
	failed, pairs := 0, 0
	for _, runPath := range runPaths {
		var doc document
		if err := readJSON(runPath, &doc); err != nil {
			return err
		}
		bs, base, kind := bounds, traj.Change.CI, "ci"
		if doc.Trace {
			bs, base, kind = traced, traj.Change.CITraced, "ci_traced"
		}
		fmt.Fprintf(w, "benchgate: %s against %d committed %s runs of %s\n", runPath, len(base), kind, filepath.Base(basePath))
		vs, err := gate(bs, base, doc)
		if err != nil {
			return fmt.Errorf("%s: %w", runPath, err)
		}
		for _, v := range vs {
			fmt.Fprintln(w, v)
			if v.failed {
				failed++
			}
		}
		pairs += len(vs)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d pairs worse than their bound: commit a new baseline, and say why in CHANGES.md", failed, pairs)
	}
	return nil
}

// newest returns the BENCH_<n>.json under root with the largest n.
func newest(root string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, p := range paths {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
		if err == nil && n > bestN {
			best, bestN = p, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json under %s", root)
	}
	return best, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// gate compares run with the committed CI-length runs base, pair by pair
// in base's workload order. A run of another length, a workload with a
// failed operation or a missing pair is an error: its counts are not
// comparable.
func gate(bounds []bound, base []document, run document) ([]verdict, error) {
	if len(base) == 0 {
		return nil, errors.New("the newest trajectory holds no CI-length run of its kind")
	}
	for _, d := range base {
		if d.Seconds != run.Seconds {
			return nil, fmt.Errorf("the run is %g s long, a committed run %g s", run.Seconds, d.Seconds)
		}
		if d.Trace != run.Trace {
			return nil, fmt.Errorf("the run is traced %v, a committed run %v", run.Trace, d.Trace)
		}
	}
	var out []verdict
	for _, bw := range base[0].Workloads {
		name := bw.Workload
		rw, err := find(run, name)
		if err != nil {
			return nil, err
		}
		if !rw.Correct || rw.Failed > 0 {
			return nil, fmt.Errorf("%s: %d operations failed", name, rw.Failed)
		}
		for _, b := range bounds {
			got, ok := rw.Metrics[b.Name]
			if !ok {
				return nil, fmt.Errorf("%s: the run has no %s", name, b.Name)
			}
			var vals []float64
			for _, d := range base {
				w, err := find(d, name)
				if err != nil {
					return nil, fmt.Errorf("committed run: %w", err)
				}
				m, ok := w.Metrics[b.Name]
				if !ok {
					return nil, fmt.Errorf("committed run: %s has no %s", name, b.Name)
				}
				vals = append(vals, m.Value)
			}
			out = append(out, judge(name, b, vals, got.Value))
		}
	}
	return out, nil
}

// judge reads one pair: got against the median of vals. Against a zero
// median, a run that moves at all the wrong way is infinitely worse.
func judge(name string, b bound, vals []float64, got float64) verdict {
	slices.Sort(vals)
	v := verdict{workload: name, metric: b.Name, got: got, bound: b.Bound}
	n := len(vals)
	v.base = (vals[(n-1)/2] + vals[n/2]) / 2
	switch {
	case v.base != 0:
		v.spread = (vals[n-1] - vals[0]) / math.Abs(v.base)
		v.worse = (got - v.base) / math.Abs(v.base)
	case vals[0] != vals[n-1]:
		v.spread = math.Inf(1)
	case got != 0:
		v.worse = math.Copysign(math.Inf(1), got)
	}
	if b.Better == "higher" {
		v.worse = -v.worse
	}
	v.gated = v.spread <= b.Bound/2
	v.failed = v.gated && v.worse > b.Bound
	return v
}

// find returns the named workload's result in d.
func find(d document, name string) (workload, error) {
	for _, w := range d.Workloads {
		if w.Workload == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("no %s result", name)
}
