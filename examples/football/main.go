// Football: the paper's q3 — track one player's trajectory in every play
// using segmentation output (player detections) joined with OCR output
// (jersey numbers) through tuple-level lineage, then backtrace a result to
// its base frame.
//
//	go run ./examples/football
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/vision"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "deeplens-football")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := dataset.Default()
	cfg.FootballClips = 3
	cfg.FootballClipLen = 40
	fb := dataset.NewFootball(cfg)

	db, err := core.Open(filepath.Join(dir, "deeplens.db"), exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer db.Close()
	det := vision.NewDetector(db.Device(), 42)
	ocr := vision.NewJerseyOCR()

	detSchema := core.DetectionSchema().WithField(core.Field{Name: "clip", Kind: core.KindInt})
	dets, err := db.CreateCollection("players", detSchema)
	if err != nil {
		return err
	}
	wordSchema := core.OCRSchema().WithField(core.Field{Name: "clip", Kind: core.KindInt})
	words, err := db.CreateCollection("jerseys", wordSchema)
	if err != nil {
		return err
	}

	// ETL: detect players per frame, then OCR each detection patch; the
	// OCR generator records lineage (word.Parent -> detection patch).
	for c, clip := range fb.Clips {
		for t := 0; t < fb.ClipLen; t++ {
			img, _ := clip.Render(t)
			frame := &core.Patch{
				Ref:  core.Ref{Source: fmt.Sprintf("clip%02d", c), Frame: uint64(t)},
				Data: core.ImageToTensor(img),
				Meta: core.Metadata{"frameno": core.IntV(int64(t))},
			}
			detPatches, err := core.DrainPatches(core.DetectGenerator(det, core.NewSliceIterator([]core.Tuple{{frame}})))
			if err != nil {
				return err
			}
			for _, dp := range detPatches {
				dp.Meta["clip"] = core.IntV(int64(c))
				withPixels := *dp
				dp.Data = nil
				if err := dets.Append(dp); err != nil {
					return err
				}
				withPixels.ID = dp.ID
				wordPatches, err := core.DrainPatches(core.OCRGenerator(ocr, core.NewSliceIterator([]core.Tuple{{&withPixels}})))
				if err != nil {
					return err
				}
				for _, wp := range wordPatches {
					wp.Meta["clip"] = core.IntV(int64(c))
					wp.Data = nil
					if err := words.Append(wp); err != nil {
						return err
					}
				}
			}
		}
	}
	fmt.Printf("ETL: %d player detections, %d jersey readings across %d clips\n",
		dets.Len(), words.Len(), len(fb.Clips))

	// Query: jersey "7" words, joined to their generating detection via
	// the lineage pointer; assemble a per-clip trajectory.
	hits, err := db.ExecuteFilter(words, "text", core.StrV(fb.TargetJersey), core.FilterColumnScan)
	if err != nil {
		return err
	}
	type point struct {
		frame int64
		cx    float64
	}
	traj := map[int64][]point{}
	for _, w := range hits {
		detPatch, err := db.GetPatch(w.Ref.Parent)
		if err != nil {
			return err
		}
		bb, _ := detPatch.Get("bbox")
		clip, _ := w.Get("clip")
		frame, _ := w.Get("frameno")
		box := bb.Vec()
		traj[clip.Int()] = append(traj[clip.Int()], point{
			frame: frame.Int(),
			cx:    float64(box[0]+box[2]) / 2,
		})
	}
	for clip := int64(0); clip < int64(len(fb.Clips)); clip++ {
		pts := traj[clip]
		sort.Slice(pts, func(i, j int) bool { return pts[i].frame < pts[j].frame })
		if len(pts) == 0 {
			fmt.Printf("clip %d: player %s not tracked\n", clip, fb.TargetJersey)
			continue
		}
		fmt.Printf("clip %d: player %s tracked in %d frames, x: %.0f -> %.0f\n",
			clip, fb.TargetJersey, len(pts), pts[0].cx, pts[len(pts)-1].cx)
	}

	// Backtrace one tracked word to its base data.
	if len(hits) > 0 {
		chain, err := db.Backtrace(hits[0])
		if err != nil {
			return err
		}
		fmt.Printf("lineage of word patch %d:", hits[0].ID)
		for _, anc := range chain {
			fmt.Printf(" -> patch %d (%s frame %d)", anc.ID, anc.Ref.Source, anc.Ref.Frame)
		}
		fmt.Println(" -> base image")
	}
	return nil
}
