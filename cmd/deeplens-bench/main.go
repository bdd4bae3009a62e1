// Command deeplens-bench regenerates every table and figure from the
// DeepLens paper's evaluation (§7) against the synthetic benchmark
// datasets. One subcommand per experiment:
//
//	deeplens-bench fig2               encoding: storage vs accuracy
//	deeplens-bench fig3               storage formats: filtered-scan latency
//	deeplens-bench fig4               query time with vs without indexes
//	deeplens-bench fig5               full pipeline incl. on-the-fly indexes
//	deeplens-bench fig6               index construction cost vs #tuples
//	deeplens-bench fig7               ball-tree join cost vs relation size
//	deeplens-bench fig8               CPU / AVX / GPU execution comparison
//	deeplens-bench table1             q4 plan order: accuracy vs runtime
//	deeplens-bench ablation-lsh       exact vs approximate matching
//	deeplens-bench ablation-segment   segmented-file clip-length sweep
//	deeplens-bench ablation-buildside similarity-join build-side choice
//	deeplens-bench ablation-kdtree    KD-tree vs ball tree across dimensionality
//	deeplens-bench all                everything above
//
// Flags scale the datasets; -scale=paper restores paper-scale frame and
// image counts (slow). Serving performance is measured by the
// benchmark/ module, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/exec"
)

func main() {
	os.Exit(realMain())
}

// realMain returns the process exit code so deferred cleanup (flushing
// an in-progress CPU profile) runs even on experiment errors.
func realMain() int {
	scale := flag.String("scale", "default", "dataset scale: default | paper | tiny")
	trafficFrames := flag.Int("traffic-frames", 0, "override TrafficCam frame count")
	pcImages := flag.Int("pc-images", 0, "override PC corpus size")
	seed := flag.Int64("seed", 1, "generator seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile after the experiment run to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: deeplens-bench [flags] <experiment>\n\nexperiments: fig2 fig3 fig4 fig5 fig6 fig7 fig8 table1 ablation-lsh ablation-segment ablation-buildside ablation-kdtree all\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := dataset.Default()
	switch *scale {
	case "paper":
		cfg = dataset.Paper()
	case "tiny":
		cfg.TrafficFrames = 120
		cfg.PCImages = 60
		cfg.FootballClips = 2
		cfg.FootballClipLen = 25
	case "default":
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed
	if *trafficFrames > 0 {
		cfg.TrafficFrames = *trafficFrames
	}
	if *pcImages > 0 {
		cfg.PCImages = *pcImages
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	fmt.Printf("# deeplens-bench: %s\n", dataset.Describe(cfg))
	if err := run(flag.Arg(0), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
	}
	return 0
}

func run(experiment string, cfg dataset.Config) error {
	switch experiment {
	case "fig2":
		return runFig2(cfg)
	case "fig3":
		return runFig3(cfg)
	case "fig4":
		return withEnv(cfg, runFig4)
	case "fig5":
		return withEnv(cfg, runFig5)
	case "fig6":
		return runFig6()
	case "fig7":
		return runFig7()
	case "fig8":
		return runFig8(cfg)
	case "table1":
		return withEnv(cfg, runTable1)
	case "ablation-lsh":
		return withEnv(cfg, runAblationLSH)
	case "ablation-segment":
		return runAblationSegment(cfg)
	case "ablation-buildside":
		return withEnv(cfg, runAblationBuildSide)
	case "ablation-kdtree":
		return runAblationKDTree()
	case "all":
		if err := runFig2(cfg); err != nil {
			return err
		}
		if err := runFig3(cfg); err != nil {
			return err
		}
		if err := withEnv(cfg, func(e *bench.Env) error {
			if err := runFig4(e); err != nil {
				return err
			}
			if err := runFig5(e); err != nil {
				return err
			}
			if err := runTable1(e); err != nil {
				return err
			}
			if err := runAblationLSH(e); err != nil {
				return err
			}
			return runAblationBuildSide(e)
		}); err != nil {
			return err
		}
		if err := runFig6(); err != nil {
			return err
		}
		if err := runFig7(); err != nil {
			return err
		}
		if err := runFig8(cfg); err != nil {
			return err
		}
		if err := runAblationKDTree(); err != nil {
			return err
		}
		return runAblationSegment(cfg)
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

func withEnv(cfg dataset.Config, fn func(*bench.Env) error) error {
	dir, err := os.MkdirTemp("", "deeplens-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Println("## ingesting datasets (ETL)...")
	e, err := bench.NewEnv(dir, cfg, exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer e.Close()
	for col, d := range e.ETLTime {
		fmt.Printf("   etl %-14s %v\n", col, d)
	}
	return fn(e)
}

func table() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func runFig2(cfg dataset.Config) error {
	fmt.Println("\n## Figure 2: encoding vs storage and accuracy (paper: H.264 saves 50x at negligible high-quality accuracy cost)")
	rows, err := bench.Fig2Encoding(cfg, 8, exec.New(exec.CPU))
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "format\tstorage\tratio\tq2 accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1fx\t%.3f\n", r.Format, fmtBytes(r.Bytes), r.Ratio, r.Accuracy)
	}
	return w.Flush()
}

func runFig3(cfg dataset.Config) error {
	fmt.Println("\n## Figure 3: storage formats under a temporal filter (paper: hybrid gets coarse pushdown + compression)")
	rows, err := bench.Fig3Formats(cfg, cfg.TrafficFrames/10, exec.New(exec.CPU))
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "format\tlatency\tframes decoded")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%d\n", r.Format, r.Latency, r.Frames)
	}
	return w.Flush()
}

func runFig4(e *bench.Env) error {
	fmt.Println("\n## Figure 4: query time with vs without indexes (paper: up to 612x for q4, 59x q1, 41x q3, 2.5x q6, ~1x q5)")
	rows, err := bench.Fig4Indexes(e)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "query\tbaseline\ttuned\tspeedup\ttuned plan")
	for _, r := range rows {
		speedup := fmt.Sprintf("%.1fx", r.Speedup)
		switch r.Query {
		case "q3":
			speedup += fmt.Sprintf(" (%d vs %d detection rows examined)", r.RowsExamined[0], r.RowsExamined[1])
		case "q5": // both arms run one plan: compare the rows each scanned
			speedup = fmt.Sprintf("%d vs %d rows scanned", r.RowsScanned[0], r.RowsScanned[1])
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%s\t%s\n", r.Query, r.Baseline, r.Tuned, speedup, r.TunedPlan)
	}
	return w.Flush()
}

func runFig5(e *bench.Env) error {
	fmt.Println("\n## Figure 5: full pipeline incl. ETL and on-the-fly indexing (paper: q1 ~5x, q4 ~3.5x)")
	rows, err := bench.Fig5Pipeline(e)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "query\tBL (baseline)\tDL (indexed)\tindex build\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%v\t%v\t%.2fx\n", r.Query, r.BL, r.DL, r.IndexCost, r.Speedup)
	}
	return w.Flush()
}

func runFig6() error {
	fmt.Println("\n## Figure 6: index construction time vs #tuples (paper: R-tree ~20x slower than B+ tree)")
	rows, err := bench.Fig6IndexBuild([]int{1000, 2000, 5000, 10000, 20000, 50000}, 1)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "index\tn\tbuild time")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%v\n", r.Index, r.N, r.Build)
	}
	return w.Flush()
}

func runFig7() error {
	fmt.Println("\n## Figure 7: ball-tree join vs indexed-relation size (paper: non-linear growth, worse in high dim)")
	rows, err := bench.Fig7BallTreeJoin([]int{1000, 2000, 5000, 10000, 20000, 40000}, []int{4, 64}, 2000, 1)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "dim\tbuild size\tprobe side\tjoin time\tevals/probe")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\t%.1f\n", r.Dim, r.BuildSize, r.Probe, r.Join, float64(r.Evals)/float64(r.Probe))
	}
	return w.Flush()
}

func runFig8(cfg dataset.Config) error {
	fmt.Println("\n## Figure 8: CPU vs AVX vs GPU for ETL and query time (paper: GPU wins ETL, mixed at query time)")
	rows, err := bench.Fig8Devices(cfg, []exec.Kind{exec.CPU, exec.AVX, exec.GPU})
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "query\tdevice\tETL time\tquery time")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%v\t%v\n", r.Query, r.Device, r.ETL, r.Query_)
	}
	return w.Flush()
}

func runTable1(e *bench.Env) error {
	fmt.Println("\n## Table 1: q4 plan order vs accuracy (paper: filter-first R=0.73 P=0.97 34.6s; match-first R=0.82 P=0.98 62.1s)")
	rows, err := bench.Table1Plans(e)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "execution method\trecall\tprecision\truntime\tdistinct")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%v\t%d\n", r.Plan, r.Recall, r.Precision, r.Runtime, r.Distinct)
	}
	return w.Flush()
}

func runAblationLSH(e *bench.Env) error {
	fmt.Println("\n## Ablation: exact ball tree vs approximate LSH on q4 matching (paper §7.3 future work)")
	rows, err := bench.AblationLSH(e)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "method\tpairs\tpair recall\ttime")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%v\n", r.Method, r.Pairs, r.Recall, r.Duration)
	}
	return w.Flush()
}

func runAblationSegment(cfg dataset.Config) error {
	fmt.Println("\n## Ablation: segmented-file clip length (paper §7.1 'manually tuned granularity')")
	rows, err := bench.AblationSegment(cfg, []uint64{8, 16, 32, 64, 128}, cfg.TrafficFrames/10)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "clip length\tstorage\tfiltered-scan latency")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%v\n", r.ClipLen, fmtBytes(r.Bytes), r.Latency)
	}
	return w.Flush()
}

func runAblationKDTree() error {
	fmt.Println("\n## Ablation: KD-tree vs ball tree across dimensionality (paper §3.2's index choice)")
	rows, err := bench.AblationKDTree([]int{2, 4, 8, 16, 32, 64}, 10000, 1000, 1)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "dim\tkd-tree\tball tree")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%v\n", r.Dim, r.KDTree, r.BallTree)
	}
	return w.Flush()
}

func runAblationBuildSide(e *bench.Env) error {
	fmt.Println("\n## Ablation: similarity-join build side (on-the-fly index over smaller vs larger relation)")
	rows, err := bench.AblationBuildSide(e)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "build side\ttime\tpairs")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%d\n", r.BuildSide, r.Duration, r.Pairs)
	}
	return w.Flush()
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
