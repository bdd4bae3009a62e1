// Serving: the DeepLens query service embedded in a program.
//
// A small TrafficCam/PC/Football corpus is ingested, then the concurrent
// serving layer answers a mixed workload twice — cold and warm — showing
// the result cache, the UDF materialization cache, and cache-aware plan
// costs at work.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/service"
)

type trafficSource struct{ tr *dataset.Traffic }

func (t trafficSource) Frames() int { return t.tr.Frames }
func (t trafficSource) Render(i int) (*codec.Image, error) {
	img, _ := t.tr.Render(i)
	return img, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "deeplens-serving")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := dataset.Default()
	cfg.TrafficFrames = 120
	cfg.PCImages = 60
	cfg.FootballClips = 1
	cfg.FootballClipLen = 20

	fmt.Println("ingesting...")
	env, err := bench.NewEnv(dir, cfg, exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer env.Close()

	svc, err := service.New(env.DB, service.Config{Workers: 4, ModelSeed: bench.ModelSeed})
	if err != nil {
		return err
	}
	defer svc.Close()
	svc.RegisterSource("trafficcam", trafficSource{env.Traffic})

	str := func(s string) *string { return &s }
	queries := []struct {
		name string
		req  service.Request
	}{
		{"count pedestrians (sorted index)", service.Request{
			Collection: bench.ColTrafficDets,
			Filter:     &service.FilterSpec{Field: "label", Str: str("pedestrian"), UseIndex: true},
		}},
		{"distinct pedestrian identities (q4)", service.Request{
			Collection: bench.ColTrafficDets,
			Filter:     &service.FilterSpec{Field: "label", Str: str("pedestrian")},
			SimJoin:    &service.SimJoinSpec{Field: "emb", Eps: 0.15, MinCluster: 2},
			Distinct:   true,
		}},
		{"near-duplicate PC images (q1, ball tree)", service.Request{
			Collection: bench.ColPCImages,
			SimJoin:    &service.SimJoinSpec{Field: "ghist", Eps: 0.066, UseIndex: true},
		}},
		{"cars in first 30 frames (inference sweep)", service.Request{
			Infer: &service.InferSpec{Source: "trafficcam", From: 0, To: 30,
				UDF: "detect", Label: "car"},
		}},
	}

	ctx := context.Background()
	for pass := 1; pass <= 2; pass++ {
		fmt.Printf("\n--- pass %d (%s) ---\n", pass, map[int]string{1: "cold", 2: "warm"}[pass])
		for _, q := range queries {
			t0 := time.Now()
			resp, err := svc.Query(ctx, q.req)
			if err != nil {
				return fmt.Errorf("%s: %w", q.name, err)
			}
			fmt.Printf("%-44s value=%-5d %8v  hit=%-5v plan=%s\n",
				q.name, resp.Value, time.Since(t0).Round(time.Microsecond),
				resp.CacheHit, resp.Plan)
		}
	}

	st := svc.Stats()
	fmt.Printf("\nresult cache: %d hits / %d misses; udf cache: %d hits / %d misses\n",
		st.ResultCache.Hits, st.ResultCache.Misses, st.UDFCache.Hits, st.UDFCache.Misses)
	fmt.Printf("cache-aware costing: a warm plan reports ~%.1fµs instead of its cold estimate\n",
		1e6*2e-6)
	return nil
}
