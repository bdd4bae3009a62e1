// Advisor: the paper's two "future work" systems working together.
//
// The storage advisor (§3) analyzes a CCTV workload and picks a storage
// scheme; the pipeline synthesizer (§4) assembles the cheapest ETL
// pipeline meeting a query's label/field requirements from a library of
// scored components. The advised store is built, ingested, and queried
// through the synthesized pipeline.
//
//	go run ./examples/advisor
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/kv"
	"repro/internal/video"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "deeplens-advisor")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// A small CCTV corpus to manage.
	cfg := dataset.Default()
	cfg.TrafficFrames = 240
	cfg.PCImages = 10
	cfg.FootballClips = 1
	cfg.FootballClipLen = 10

	// 1. Describe the production workload to the storage advisor: a 1080p
	//    camera scanned a few times a day with narrow temporal windows,
	//    tolerating mild loss. (The demo then ingests a downscaled feed in
	//    the advised format.)
	w := video.Workload{
		Frames:              35280,
		FrameBytes:          1920 * 1080 * 3,
		ScansPerDay:         12,
		TemporalSelectivity: 0.1,
		MinAccuracy:         0.97,
	}
	advice, err := video.Advise(w, video.DefaultCostProfile())
	if err != nil {
		return err
	}
	fmt.Println("storage advisor:", advice.Rationale)

	// 2. Build the advised store and ingest the camera feed.
	st, err := kv.Open(filepath.Join(dir, "video.db"))
	if err != nil {
		return err
	}
	defer st.Close()
	bucket, err := st.Bucket("cam")
	if err != nil {
		return err
	}
	traffic := dataset.NewTraffic(cfg)
	store, err := advice.Build(bucket, filepath.Join(dir, "cam.dlv"))
	if err != nil {
		return err
	}
	if err := video.Ingest(store, uint64(traffic.Frames), func(i uint64) *codec.Image {
		img, _ := traffic.Render(int(i))
		return img
	}); err != nil {
		return err
	}
	bytes, _ := store.StorageBytes()
	fmt.Printf("ingested %d frames into %v: %.1f KiB\n", traffic.Frames, store.Format(), float64(bytes)/1024)

	// 3. Ask the synthesizer for a pipeline: the query needs pedestrian
	//    labels with per-patch depth (q6's requirement).
	env, err := bench.NewEnv(dir, cfg, exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer env.Close()
	lib, err := env.NewLibrary()
	if err != nil {
		return err
	}
	sp, err := lib.Synthesize(core.Requirement{
		NeedLabel:  "pedestrian",
		NeedFields: []string{"depth"},
	})
	if err != nil {
		return err
	}
	fmt.Println("pipeline synthesizer:", sp.Explain)

	// An unsatisfiable requirement is caught declaratively.
	if _, err := lib.Synthesize(core.Requirement{NeedLabel: "airplane"}); err != nil {
		fmt.Println("synthesizer rejected an impossible requirement:", err)
	}

	// 4. Run the synthesized pipeline over a temporal window of the
	//    advised store and count deep pedestrians.
	start := time.Now()
	frames := core.LoadVideo("cam", store, core.FrameRange{Lo: 120, Hi: 180})
	ps, err := core.Collect(sp.Build(frames))
	if err != nil {
		return err
	}
	peds := core.Pred{Field: "label", V: core.StrV("pedestrian")}
	ps = slices.DeleteFunc(ps, func(p *core.Patch) bool { return !peds.Match(p) })
	far := 0
	for _, p := range ps {
		if d, _ := p.Get("depth"); d.Float() > 5 {
			far++
		}
	}
	fmt.Printf("query over frames [120,180): %d pedestrian patches, %d farther than 5 units (%v)\n",
		len(ps), far, time.Since(start))
	return nil
}
