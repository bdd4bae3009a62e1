// Command benchmark is the repository's end-to-end benchmark: four
// fixed-work serving workloads driven by one closed-loop client through
// the real service's HTTP handler, four end-to-end metrics, the request
// timings beside them, and a traced mode that attributes the same
// requests to service, core, kv and codec from the outside. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 10

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	out       string
	traceOut  string
	dataDir   string
	smoke     bool
	verify    bool
	selfcheck bool
	runs      int
}

// result is one workload's part of the output document.
type result struct {
	Workload   string           `json:"workload"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	FirstError string           `json:"first_error,omitempty"`
	StealPct   float64          `json:"steal_pct"` // /proc/stat steal share over the measured window; -1 if unreadable
	SetupS     []float64        `json:"setup_s"`
	Rounds     []roundInfo      `json:"rounds"`
	Metrics    map[string]value `json:"metrics"`
	// Timings are the untraced run's request timings, which no bound
	// gates; the traced run has them among its metrics.
	Timings map[string]value `json:"timings,omitempty"`
}

type roundInfo struct {
	Ops   int     `json:"ops"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
}

// document is what -out writes.
type document struct {
	Env       envBlock  `json:"env"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Workloads []*result `json:"workloads"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "cached_point, scan_inmem, scan_tiered, ingest_live, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the fixture rows and the op lists")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "sizes the fixed work: the eight measured rounds take about this long on the reference sandbox")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the three traced passes and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.out, "out", "", "write the full JSON document (env block, rounds, metrics) to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans to this file at exit")
	flag.StringVar(&o.dataDir, "data-dir", ".bench_build/data", "scratch directory for the databases under test")
	flag.BoolVar(&o.smoke, "smoke", false, "rows/100, one set-up, one round: a wiring check, not a measurement")
	flag.BoolVar(&o.verify, "verify", false, "check every response against the oracle, not a sample")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two alternating sets of this binary and compare them against the bounds")
	flag.IntVar(&o.runs, "runs", 10, "with -selfcheck, runs per set and workload")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		os.Exit(2)
	}
	// One client and two workers: more Ps only add scheduler noise.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	var err error
	if o.selfcheck {
		err = selfcheck(&o)
	} else {
		err = run(&o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	var todo []*workload
	if o.workload == "all" {
		todo = workloads
	} else if w := workloadNamed(o.workload); w != nil {
		todo = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	doc := &document{Env: readEnv(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1}
	var tr *tracer
	if o.trace == 1 {
		tr = &tracer{t0: time.Now()}
	}
	line := resultLine{Correct: true, Metrics: map[string]value{}}
	for _, w := range todo {
		c := &runConfig{w: w, seed: o.seed, seconds: o.seconds, scale: 1, rounds: measuredRounds, setups: setupRepeats, verify: o.verify, dataDir: o.dataDir}
		if o.smoke {
			c.scale, c.rounds, c.setups = 100, 1, 1
		}
		if tr != nil {
			c.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
		}
		res, err := c.run(tr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		doc.Workloads = append(doc.Workloads, res)
		res.print()
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for name, v := range res.Metrics {
			if len(todo) > 1 {
				name = w.name + "." + name
			}
			line.Metrics[name] = v
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, doc); err != nil {
			return err
		}
	}
	if tr != nil && o.traceOut != "" {
		if err := writeJSON(o.traceOut, map[string]any{"spans": tr.spans}); err != nil {
			return err
		}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// run executes one workload: set-up, the untraced rounds and, with a
// tracer, the traced passes.
func (c *runConfig) run(tr *tracer) (res *result, err error) {
	p := c.newPlan()
	in, setups, baseline, err := c.prepare(p)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := in.close(); err == nil {
			err = cerr
		}
	}()
	m := &measured{setupS: setups}
	if err := c.measure(p, in, m, baseline); err != nil {
		return nil, err
	}
	if m.failed == m.attempted {
		return nil, fmt.Errorf("all %d operations failed, first: %w", m.failed, m.firstErr)
	}
	var metrics, timings map[string]value
	if tr != nil {
		layers, err := c.traced(p, in, m, tr)
		if err != nil {
			return nil, err
		}
		metrics = report(perLayerSpecs, layers)
	} else {
		metrics = report(endToEndSpecs, m.endToEnd())
		timings = map[string]value{}
		vals := m.timings()
		for _, s := range perLayerSpecs {
			if v, ok := vals[s.Name]; ok {
				timings[s.Name] = value{v, s.Unit}
			}
		}
	}
	res = &result{
		Workload: c.w.name, Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		StealPct: m.stealPct, SetupS: m.setupS, Metrics: metrics, Timings: timings,
	}
	if m.firstErr != nil {
		res.FirstError = m.firstErr.Error()
	}
	for _, r := range m.rounds {
		res.Rounds = append(res.Rounds, roundInfo{len(r.ops), r.wall.Seconds(), r.cpu.Seconds()})
	}
	return res, nil
}

// print writes the workload's metrics by name with their units.
func (r *result) print() {
	fmt.Printf("%s: attempted %d, failed %d, steal %.1f%%\n", r.Workload, r.Attempted, r.Failed, r.StealPct)
	if r.FirstError != "" {
		fmt.Printf("  first failure: %s\n", r.FirstError)
	}
	printSorted(r.Metrics)
	if len(r.Timings) > 0 {
		fmt.Println("  request timings, not gated:")
		printSorted(r.Timings)
	}
}

func printSorted(metrics map[string]value) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-44s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
