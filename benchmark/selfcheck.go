package main

// -selfcheck: two alternating sets (A, B, A, B, ...) of runs of this
// same binary, judged by the rule the acceptance check applies to the
// benchmark itself: per workload and end-to-end metric, each set's
// interquartile spread must stay within the metric's bound (setup_s
// excepted) and set B's median must not be worse than set A's by more
// than the bound. A second table holds the ungated request timings to
// the bound they would need. The output is committed as NOISE.md.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// timingBound is the bound a request timing has to hold, spread and
// median shift both, to be an end-to-end metric (issue 17). The
// self-check reports the timings against it without failing on them.
const timingBound = 0.10

// runChild runs one workload in a fresh process and returns its result:
// the end-to-end metrics and the ungated request timings.
func runChild(exe string, o *options, w *workload, seed int64) (*result, error) {
	out := filepath.Join(o.dataDir, fmt.Sprintf("selfcheck-%d.json", os.Getpid()))
	defer os.Remove(out)
	cmd := exec.Command(exe,
		"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0", "-data-dir", o.dataDir, "-out", out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Workloads) != 1 {
		return nil, fmt.Errorf("%s seed %d: malformed output document (%v)", w.name, seed, err)
	}
	res := doc.Workloads[0]
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func selfcheck(o *options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	todo := workloads
	if o.workload != "all" {
		w := workloadNamed(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []*workload{w}
	}
	// vals[workload][metric][set] collects one value per run.
	vals := map[string]map[string][2][]float64{}
	for _, w := range todo {
		vals[w.name] = map[string][2][]float64{}
		for i := 0; i < o.runs; i++ {
			for set := 0; set < 2; set++ {
				// Both sets walk the same seeds, a new one each run, as
				// the acceptance check does.
				res, err := runChild(exe, o, w, o.seed+int64(i))
				if err != nil {
					return err
				}
				for _, metrics := range []map[string]value{res.Metrics, res.Timings} {
					for name, v := range metrics {
						pair := vals[w.name][name]
						pair[set] = append(pair[set], v.Value)
						vals[w.name][name] = pair
					}
				}
				fmt.Fprintf(os.Stderr, "selfcheck: %s run %d set %c done\n", w.name, i+1, 'A'+set)
			}
		}
	}

	var buf bytes.Buffer
	env := readEnv()
	fmt.Fprintf(&buf, "# Benchmark noise: two alternating sets of the same binary\n\n")
	fmt.Fprintf(&buf, "`-selfcheck -runs %d -seconds %g`, seeds %d..%d, commit `%s`, %s, GOMAXPROCS %d of %d CPUs (%s), load average %s.\n\n",
		o.runs, o.seconds, o.seed, o.seed+int64(o.runs)-1, env.Commit, env.GoVersion, env.GOMAXPROCS, env.NProc, env.CPUModel, env.LoadAvg)
	fmt.Fprintf(&buf, "Spread is (Q3 - Q1) / median over a set's runs, quartiles as Python's `statistics.quantiles(n=4)`. "+
		"B vs A is how much worse set B's median is than set A's, in the metric's own direction. "+
		"A row fails when a spread (setup_s excepted) or B vs A exceeds the bound.\n\n")
	// table prints one row per workload and metric and returns how many
	// broke their bound.
	table := func(specs []metricSpec) (failed int) {
		fmt.Fprintf(&buf, "| workload | metric | unit | bound | A median | A spread | B median | B spread | B vs A | verdict |\n")
		fmt.Fprintf(&buf, "|---|---|---|---|---|---|---|---|---|---|\n")
		for _, w := range todo {
			for _, s := range specs {
				pair, ok := vals[w.name][s.Name]
				if !ok {
					continue
				}
				var med, spread [2]float64
				for set := range pair {
					q1, q2, q3 := quartiles(pair[set])
					med[set], spread[set] = q2, ratio(q3-q1, q2)
				}
				if med[0] == 0 && med[1] == 0 {
					continue // service.append_p50_ms where nothing appends
				}
				worse := worseBy(s.Better, med[0], med[1])
				verdict := "ok"
				if worse > s.Bound || (s.Name != "setup_s" && (spread[0] > s.Bound || spread[1] > s.Bound)) {
					verdict = "FAIL"
					failed++
				}
				fmt.Fprintf(&buf, "| %s | %s | %s | %.2f | %.4f | %.1f%% | %.4f | %.1f%% | %+.1f%% | %s |\n",
					w.name, s.Name, s.Unit, s.Bound, med[0], 100*spread[0], med[1], 100*spread[1], 100*worse, verdict)
			}
		}
		return failed
	}
	failed := table(endToEndSpecs)
	fmt.Fprintf(&buf, "\n## Request timings, not gated\n\n")
	fmt.Fprintf(&buf, "The same runs' request timings against the %.2f a timing has to hold to be an end-to-end metric. "+
		"A FAIL here is why the metric is per-layer; it does not fail the self-check.\n\n", timingBound)
	timings := append([]metricSpec(nil), perLayerSpecs...)
	for i := range timings {
		timings[i].Bound = timingBound
	}
	table(timings)
	os.Stdout.Write(buf.Bytes())
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d workload x metric pairs disagree by more than their bound", failed)
	}
	return nil
}
