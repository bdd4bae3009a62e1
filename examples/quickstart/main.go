// Quickstart: the paper's Example 1 end to end.
//
// A CCTV feed of a parking lot is ingested into a Segmented File store,
// loaded through the uniform Load API with a temporal filter, run through
// the SSD-sim object detector (a patch generator), and the resulting
// patch collection is queried relationally: count the cars per frame.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/kv"
	"repro/internal/video"
	"repro/internal/vision"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "deeplens-quickstart")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// 1. A synthetic parking-lot camera: 200 frames of cars and pedestrians.
	cfg := dataset.Default()
	cfg.TrafficFrames = 200
	traffic := dataset.NewTraffic(cfg)

	// 2. Ingest into the Segmented File storage format: 32-frame clips,
	//    inter-frame compressed, bucketed by start frame.
	st, err := kv.Open(filepath.Join(dir, "video.db"))
	if err != nil {
		return err
	}
	defer st.Close()
	bucket, err := st.Bucket("parkinglot")
	if err != nil {
		return err
	}
	store := video.NewSegmentedFile(bucket, codec.QualityHigh, codec.DefaultGOP, 32)
	if err := video.Ingest(store, uint64(traffic.Frames), func(i uint64) *codec.Image {
		img, _ := traffic.Render(int(i))
		return img
	}); err != nil {
		return err
	}
	stored, _ := store.StorageBytes()
	raw := int64(traffic.Frames) * int64(cfg.TrafficW*cfg.TrafficH*3)
	fmt.Printf("ingested %d frames: %.1f KiB stored (%.0fx compression)\n",
		traffic.Frames, float64(stored)/1024, float64(raw)/float64(stored))

	// 3. Load frames 40..120 (the temporal filter pushes down to whole
	//    clips), generate detection patches, and materialize them.
	db, err := core.Open(filepath.Join(dir, "deeplens.db"), exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer db.Close()
	frames := core.LoadVideo("parkinglot", store, core.FrameRange{Lo: 40, Hi: 120})
	det := vision.NewDetector(db.Device(), 42)
	dets := core.DetectGenerator(det, frames)
	dets = core.DropData(dets)
	col, err := db.Materialize("parkinglot.dets", core.DetectionSchema(), dets)
	if err != nil {
		return err
	}
	fmt.Printf("materialized %d detection patches from frames [40,120)\n", col.Len())

	// 4. Query: cars per frame — a filter plus a group-by over metadata.
	cars, err := db.ExecuteFilter(col, "label", core.StrV("car"), core.FilterColumnScan)
	if err != nil {
		return err
	}
	groups, err := core.Drain(core.GroupCount(core.FromPatches(cars), "frameno"))
	if err != nil {
		return err
	}
	busiest, most := int64(-1), int64(0)
	var total int64
	for _, g := range groups {
		count, _ := g[0].Get("count")
		group, _ := g[0].Get("group")
		n := count.Int()
		total += n
		if n > most {
			most, busiest = n, group.Int()
		}
	}
	fmt.Printf("cars per frame over %d frames: %d total, busiest frame %d (%d cars)\n",
		len(groups), total, busiest, most)

	// 5. Plan-time validation: a filter on a label the detector can never
	//    produce is rejected before execution.
	if _, err := db.PlanFilter(col, "label", core.StrV("bicycle")); err != nil {
		fmt.Printf("type system rejected an impossible filter: %v\n", err)
	}
	return nil
}
