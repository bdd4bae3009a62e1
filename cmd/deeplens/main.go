// Command deeplens is the interactive CLI over a DeepLens database: it
// generates the benchmark datasets, runs the ETL pipelines into a
// persistent database file, executes the six benchmark queries, and
// inspects catalog state.
//
//	deeplens -db dl.db ingest            generate datasets + run ETL
//	deeplens -db dl.db query q2          run one benchmark query
//	deeplens -db dl.db catalog           list collections and sizes
//	deeplens -db dl.db backtrace <id>    show a patch's lineage chain
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/video"
)

func main() {
	dbPath := flag.String("db", "deeplens.db", "database file")
	scale := flag.String("scale", "tiny", "dataset scale for ingest: tiny | default | paper")
	device := flag.String("device", "cpu", "execution device: cpu | avx | gpu")
	tuned := flag.Bool("tuned", true, "use the tuned physical design for queries")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: deeplens [flags] <command> [args]\n\ncommands: ingest | query {q1..q6} | catalog | backtrace <patch-id> | advise [flags]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	dev := exec.CPU
	switch *device {
	case "avx":
		dev = exec.AVX
	case "gpu":
		dev = exec.GPU
	case "cpu":
	default:
		fmt.Fprintf(os.Stderr, "unknown device %q\n", *device)
		os.Exit(2)
	}
	if err := run(flag.Args(), *dbPath, *scale, dev, *tuned); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(args []string, dbPath, scale string, dev exec.Kind, tuned bool) error {
	switch args[0] {
	case "ingest":
		return ingest(dbPath, scale, dev)
	case "query":
		if len(args) != 2 {
			return fmt.Errorf("usage: deeplens query {q1..q6}")
		}
		return query(dbPath, scale, dev, args[1], tuned)
	case "catalog":
		return catalog(dbPath)
	case "backtrace":
		if len(args) != 2 {
			return fmt.Errorf("usage: deeplens backtrace <patch-id>")
		}
		id, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return err
		}
		return backtrace(dbPath, core.PatchID(id))
	case "advise":
		return advise(args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func cfgFor(scale string) (dataset.Config, error) {
	cfg := dataset.Default()
	switch scale {
	case "paper":
		cfg = dataset.Paper()
	case "tiny":
		cfg.TrafficFrames = 150
		cfg.PCImages = 80
		cfg.FootballClips = 2
		cfg.FootballClipLen = 30
	case "default":
	default:
		return cfg, fmt.Errorf("unknown scale %q", scale)
	}
	return cfg, nil
}

// envAt builds (or reuses) the benchmark environment rooted at the db
// file's directory. Ingest state is keyed by the db file itself: if it
// already holds the collections, NewEnvAt skips the ETL and reuses them,
// so ingest refuses an existing path rather than re-running it.
func envAt(dbPath, scale string, dev exec.Kind) (*bench.Env, error) {
	cfg, err := cfgFor(scale)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(dbPath)
	return bench.NewEnvAt(dbPath, dir, cfg, exec.New(dev))
}

func ingest(dbPath, scale string, dev exec.Kind) error {
	if _, err := os.Stat(dbPath); err == nil {
		return fmt.Errorf("%s already exists; ingest needs a fresh database file", dbPath)
	}
	fmt.Printf("ingesting %s-scale datasets into %s...\n", scale, dbPath)
	e, err := envAt(dbPath, scale, dev)
	if err != nil {
		return err
	}
	defer e.Close()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "collection\tpatches\tetl time")
	for _, name := range []string{bench.ColTrafficDets, bench.ColPCImages, bench.ColPCWords, bench.ColFBDets, bench.ColFBWords} {
		col, err := e.DB.Collection(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%v\n", name, col.Len(), e.ETLTime[name])
	}
	return w.Flush()
}

func query(dbPath, scale string, dev exec.Kind, q string, tuned bool) error {
	e, err := envAt(dbPath, scale, dev)
	if err != nil {
		return err
	}
	defer e.Close()
	var res bench.QueryResult
	switch q {
	case "q1":
		res, err = e.Q1(tuned)
	case "q2":
		res, err = e.Q2(tuned)
	case "q3":
		res, err = e.Q3(tuned)
	case "q4":
		res, err = e.Q4(tuned)
	case "q5":
		res, err = e.Q5(e.PC.Vocabulary[0])
	case "q6":
		res, err = e.Q6(tuned)
	default:
		return fmt.Errorf("unknown query %q (want q1..q6)", q)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: value=%d plan=%q time=%v\n", res.Query, res.Value, res.Plan, res.Duration)
	return nil
}

// advise runs the storage advisor (paper §3 future work) on a workload
// described by its own flag set.
func advise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ContinueOnError)
	frames := fs.Int("frames", 35280, "video length in frames")
	width := fs.Int("width", 1920, "frame width")
	height := fs.Int("height", 1080, "frame height")
	scans := fs.Float64("scans-per-day", 10, "how often the video is scanned")
	selectivity := fs.Float64("selectivity", 0.05, "fraction of the video a scan touches")
	minAcc := fs.Float64("min-accuracy", 0.97, "accuracy floor relative to RAW (1.0 = lossless)")
	budget := fs.Int64("budget-bytes", 0, "storage cap in bytes (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	adv, err := video.Advise(video.Workload{
		Frames:              *frames,
		FrameBytes:          *width * *height * 3,
		ScansPerDay:         *scans,
		TemporalSelectivity: *selectivity,
		MinAccuracy:         *minAcc,
		StorageBudgetBytes:  *budget,
	}, video.DefaultCostProfile())
	if err != nil {
		return err
	}
	fmt.Printf("recommended format: %v\n", adv.Format)
	if adv.Format != video.FormatRaw {
		fmt.Printf("quality: %v\n", adv.Quality)
	}
	if adv.Format == video.FormatSegmented {
		fmt.Printf("clip length: %d frames\n", adv.ClipLen)
	}
	fmt.Println(adv.Rationale)
	return nil
}

func catalog(dbPath string) error {
	db, err := core.Open(dbPath, exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer db.Close()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "collection\tpatches\tdeclared fields")
	for _, name := range db.Collections() {
		col, err := db.Collection(name)
		if err != nil {
			return err
		}
		fields := ""
		for i, f := range col.Schema().Fields {
			if i > 0 {
				fields += ", "
			}
			fields += f.Name
		}
		fmt.Fprintf(w, "%s\t%d\t%s\n", name, col.Len(), fields)
	}
	return w.Flush()
}

func backtrace(dbPath string, id core.PatchID) error {
	db, err := core.Open(dbPath, exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer db.Close()
	p, err := db.GetPatch(id)
	if err != nil {
		return err
	}
	fmt.Printf("patch %d: source=%s frame=%d parent=%d\n", p.ID, p.Ref.Source, p.Ref.Frame, p.Ref.Parent)
	chain, err := db.Backtrace(p)
	if err != nil {
		return err
	}
	for i, anc := range chain {
		fmt.Printf("  ancestor %d: patch %d source=%s frame=%d\n", i+1, anc.ID, anc.Ref.Source, anc.Ref.Frame)
	}
	if len(chain) == 0 {
		fmt.Println("  (derived directly from the base image)")
	}
	return nil
}
