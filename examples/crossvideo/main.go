// Crossvideo: the paper's Example 2 — find cars that appear in two
// different CCTV feeds.
//
// Two cameras watch different streets; some car identities drive past
// both. Each feed is detected and embedded independently; the cross-feed
// similarity join matches embeddings with the on-the-fly ball-tree index
// (built over the smaller relation), and the optimizer's cost model is
// shown choosing a physical plan.
//
//	go run ./examples/crossvideo
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/vision"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// buildScene constructs one camera's scene over a shared pool of car
// objects plus camera-local traffic.
func buildScene(shared []*vision.Object, localSeed int64, frames int) *vision.Scene {
	rng := rand.New(rand.NewSource(localSeed))
	const w, h = 192, 108
	horizon := h / 4
	sc := &vision.Scene{
		W: w, H: h, Horizon: horizon, Focal: float64(h) / 3,
		Background: vision.NewTrafficBackground(w, h, horizon),
	}
	// Shared identities drive through at camera-specific times.
	for i, proto := range shared {
		o := *proto
		o.X0 = -6
		o.VX = 0.5 + rng.Float64()*0.3
		o.Z0 = 4 + rng.Float64()*3
		o.Appear = i * frames / (len(shared) + 1)
		o.Vanish = o.Appear + int(112/o.VX)
		sc.Objects = append(sc.Objects, &o)
	}
	// Local-only traffic.
	for t := 10; t < frames; t += 45 + rng.Intn(30) {
		car := vision.NewObject(uint64(1000+localSeed*100)+uint64(t), vision.ClassCar, rng)
		car.X0, car.VX = -6, 0.4+rng.Float64()*0.5
		car.Z0 = 4 + rng.Float64()*5
		car.Appear, car.Vanish = t, t+int(112/car.VX)
		sc.Objects = append(sc.Objects, car)
	}
	return sc
}

func run() error {
	dir, err := os.MkdirTemp("", "deeplens-crossvideo")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const frames = 150

	// Shared car identities that pass both cameras.
	rng := rand.New(rand.NewSource(7))
	shared := make([]*vision.Object, 3)
	for i := range shared {
		shared[i] = vision.NewObject(uint64(i+1), vision.ClassCar, rng)
	}
	camA := buildScene(shared, 1, frames)
	camB := buildScene(shared, 2, frames)

	db, err := core.Open(filepath.Join(dir, "deeplens.db"), exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer db.Close()
	det := vision.NewDetector(db.Device(), 42)
	emb := vision.NewEmbedder(db.Device(), 42)

	cars := core.Pred{Field: "label", V: core.StrV("car")}
	ingest := func(name string, sc *vision.Scene) (*core.Collection, error) {
		t := 0
		framesIt := core.NewFuncIterator(func() (core.Tuple, bool, error) {
			if t >= frames {
				return nil, false, nil
			}
			img, _ := sc.Render(t)
			p := &core.Patch{
				Ref:  core.Ref{Source: name, Frame: uint64(t)},
				Data: core.ImageToTensor(img),
				Meta: core.Metadata{"frameno": core.IntV(int64(t))},
			}
			t++
			return core.Tuple{p}, true, nil
		}, nil)
		it := core.DetectGenerator(det, framesIt)
		it = core.Transform(it, func(t core.Tuple) ([]core.Tuple, error) {
			if !cars.Match(t[0]) {
				return nil, nil
			}
			return []core.Tuple{t}, nil
		})
		it = core.EmbedTransformer(emb, it)
		it = core.DropData(it)
		schema := core.DetectionSchema().
			WithField(core.Field{Name: "emb", Kind: core.KindVec, VecDim: emb.Dim()})
		return db.Materialize(name+".cars", schema, it)
	}
	colA, err := ingest("camA", camA)
	if err != nil {
		return err
	}
	colB, err := ingest("camB", camB)
	if err != nil {
		return err
	}
	fmt.Printf("camA: %d car patches, camB: %d car patches\n", colA.Len(), colB.Len())

	// The optimizer picks the physical join; show its reasoning.
	cm := core.DefaultCostModel()
	plan := cm.PlanSimilarityJoin(colA.Len(), colB.Len(), emb.Dim(), false)
	fmt.Printf("optimizer chose %s on %s (est %.4fs)\n", plan.Method, plan.Device, plan.EstCost)

	psA, _ := colA.Patches()
	psB, _ := colB.Patches()
	pairs, err := core.SimilarityJoinOnTheFly(psA, psB, core.SimilarityJoinOpts{
		LeftField: "emb", RightField: "emb", Eps: 0.12})
	if err != nil {
		return err
	}

	// Group matched pairs into cross-camera identities, and sample the
	// first distinct (camA frame, camB frame) pairs in join order.
	matchedA := map[core.PatchID]bool{}
	seen := map[[2]uint64]bool{}
	var sample [][2]uint64
	for _, pr := range pairs {
		matchedA[pr[0].ID] = true
		fh := [2]uint64{pr[0].Ref.Frame, pr[1].Ref.Frame}
		if len(sample) < 5 && !seen[fh] {
			seen[fh] = true
			sample = append(sample, fh)
		}
	}
	fmt.Printf("similarity join: %d cross-feed matches covering %d camA patches\n",
		len(pairs), len(matchedA))
	fmt.Printf("ground truth: %d car identities were planted in both feeds\n", len(shared))
	if len(pairs) == 0 {
		return fmt.Errorf("no cross-feed matches found")
	}
	fmt.Println("sample matched (camA frame, camB frame) pairs:")
	for _, fh := range sample {
		fmt.Printf("  camA@%d <-> camB@%d\n", fh[0], fh[1])
	}
	return nil
}
