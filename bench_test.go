// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure in the DeepLens paper's evaluation (§7), plus
// microbenchmarks for the substrates those experiments are built from.
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigN runs the corresponding experiment at a reduced scale
// (the deeplens-bench command runs them at full scale and prints the
// paper-style tables; EXPERIMENTS.md records paper-vs-measured values).
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/balltree"
	"repro/internal/bench"
	"repro/internal/bench/lshablation"
	"repro/internal/btree"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/hashidx"
	"repro/internal/kv"
	"repro/internal/rtree"
	"repro/internal/service"
	"repro/internal/vision"
)

// benchCfg is the shared reduced-scale configuration for the experiment
// benchmarks.
func benchCfg() dataset.Config {
	c := dataset.Default()
	c.TrafficFrames = 240
	c.PCImages = 150
	c.FootballClips = 2
	c.FootballClipLen = 30
	return c
}

var (
	benchEnv     *bench.Env
	benchEnvErr  error
	benchEnvOnce sync.Once
)

func sharedEnv(b *testing.B) *bench.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dl-root-bench")
		if err != nil {
			benchEnvErr = err
			return
		}
		benchEnv, benchEnvErr = bench.NewEnv(dir, benchCfg(), exec.New(exec.CPU))
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// ------------------------------------------------ experiment benchmarks ----

// BenchmarkFig2Encoding regenerates Figure 2 (storage vs accuracy per
// encoding level).
func BenchmarkFig2Encoding(b *testing.B) {
	cfg := benchCfg()
	cfg.TrafficFrames = 120
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig2Encoding(cfg, 10, exec.New(exec.CPU))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig3Formats regenerates Figure 3 (temporal-filter latency per
// storage format).
func BenchmarkFig3Formats(b *testing.B) {
	cfg := benchCfg()
	cfg.TrafficFrames = 150
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig3Formats(cfg, 20, exec.New(exec.CPU)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Indexes regenerates Figure 4 (query time with vs without
// indexes for q1-q6).
func BenchmarkFig4Indexes(b *testing.B) {
	e := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig4Indexes(e)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig5Pipeline regenerates Figure 5 (full pipeline incl.
// on-the-fly index construction).
func BenchmarkFig5Pipeline(b *testing.B) {
	e := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5Pipeline(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6IndexBuild regenerates Figure 6 (index construction cost).
func BenchmarkFig6IndexBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig6IndexBuild([]int{1000, 5000, 10000}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7BallTreeJoin regenerates Figure 7 (ball-tree join cost vs
// indexed-relation size, low vs high dimension).
func BenchmarkFig7BallTreeJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig7BallTreeJoin([]int{1000, 5000, 10000}, []int{4, 64}, 1000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Devices regenerates Figure 8 (CPU/AVX/GPU execution).
func BenchmarkFig8Devices(b *testing.B) {
	cfg := benchCfg()
	cfg.TrafficFrames = 100
	cfg.PCImages = 80
	cfg.FootballClips = 1
	cfg.FootballClipLen = 20
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig8Devices(cfg, []exec.Kind{exec.CPU, exec.AVX, exec.GPU})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 18 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable1Plans regenerates Table 1 (q4 plan order: accuracy vs
// runtime).
func BenchmarkTable1Plans(b *testing.B) {
	e := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1Plans(e)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkAblationLSH regenerates the exact-vs-approximate matching
// ablation (§7.3).
func BenchmarkAblationLSH(b *testing.B) {
	e := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lshablation.Run(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSegment regenerates the clip-length sweep (§7.1).
func BenchmarkAblationSegment(b *testing.B) {
	cfg := benchCfg()
	cfg.TrafficFrames = 128
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationSegment(cfg, []uint64{8, 32, 128}, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceParallelQueries measures serving throughput at 1/4/16
// workers with cold vs. warm caches over a mixed query workload
// (indexed filter, scan filter, similarity join). Cold bypasses the
// result cache (every request executes a plan); warm serves fingerprint
// hits — the cross-query reuse the serving subsystem exists for.
func BenchmarkServiceParallelQueries(b *testing.B) {
	e := sharedEnv(b)
	str := func(s string) *string { return &s }
	workload := []service.Request{
		{Collection: bench.ColTrafficDets,
			Filter: &service.FilterSpec{Field: "label", Str: str("pedestrian"), UseIndex: true}},
		{Collection: bench.ColTrafficDets,
			Filter: &service.FilterSpec{Field: "label", Str: str("car")}},
		{Collection: bench.ColPCImages,
			SimJoin: &service.SimJoinSpec{Field: "ghist", Eps: 0.066, UseIndex: true}},
	}
	for _, workers := range []int{1, 4, 16} {
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(b *testing.B) {
				svc, err := service.New(e.DB, service.Config{
					Workers:    workers,
					QueueDepth: 1024, // absorb the bench harness's parallelism
					ModelSeed:  bench.ModelSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				ctx := context.Background()
				reqs := make([]service.Request, len(workload))
				copy(reqs, workload)
				if mode == "cold" {
					for i := range reqs {
						reqs[i].NoCache = true
					}
				} else {
					for _, r := range reqs { // prime the result cache
						if _, err := svc.Query(ctx, r); err != nil {
							b.Fatal(err)
						}
					}
				}
				var next atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						req := reqs[int(next.Add(1))%len(reqs)]
						if _, err := svc.Query(ctx, req); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// ------------------------------------------------- substrate benchmarks ----

// BenchmarkBTreeInsert measures on-disk B+ tree construction (one Figure 6
// series in isolation).
func BenchmarkBTreeInsert(b *testing.B) {
	p, err := kv.OpenPager(filepath.Join(b.TempDir(), "b.db"))
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	t := btree.New(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.Put(kv.U64Key(uint64(i)), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashInsert measures extendible-hash construction.
func BenchmarkHashInsert(b *testing.B) {
	p, err := kv.OpenPager(filepath.Join(b.TempDir(), "h.db"))
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ix, err := hashidx.Create(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Put(kv.U64Key(uint64(i)), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTreeInsert measures R-tree quadratic-split construction.
func BenchmarkRTreeInsert(b *testing.B) {
	t := rtree.New(2)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if err := t.Insert(rtree.BBox2D(x, y, x+10, y+10), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBallTreeBuild measures ball-tree construction over 64-d
// features, each from a copy of the points: Build partitions its input.
func BenchmarkBallTreeBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]balltree.Point, 5000)
	for i := range pts {
		v := make([]float32, 64)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		pts[i] = balltree.Point{Vec: v, ID: uint64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := balltree.Build(slices.Clone(pts)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBallTreeRange measures threshold probes against a built tree.
func BenchmarkBallTreeRange(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]balltree.Point, 10000)
	for i := range pts {
		v := make([]float32, 64)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		pts[i] = balltree.Point{Vec: v, ID: uint64(i)}
	}
	t, err := balltree.Build(slices.Clone(pts))
	if err != nil {
		b.Fatal(err)
	}
	q := pts[0].Vec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		t.RangeSearch(q, 2.0, func(balltree.Point, float64) bool { n++; return true })
	}
}

// BenchmarkDLVEncode measures inter-frame video encoding throughput.
func BenchmarkDLVEncode(b *testing.B) {
	cfg := benchCfg()
	cfg.TrafficFrames = 32
	tr := dataset.NewTraffic(cfg)
	frames := make([]*codec.Image, cfg.TrafficFrames)
	var pixels int64
	for t := range frames {
		frames[t], _ = tr.Render(t)
		pixels += int64(frames[t].RawSize())
	}
	b.SetBytes(pixels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.EncodeDLV(frames, codec.QualityHigh, codec.DefaultGOP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDLVDecode measures sequential decode throughput.
func BenchmarkDLVDecode(b *testing.B) {
	cfg := benchCfg()
	cfg.TrafficFrames = 32
	tr := dataset.NewTraffic(cfg)
	frames := make([]*codec.Image, cfg.TrafficFrames)
	var pixels int64
	for t := range frames {
		frames[t], _ = tr.Render(t)
		pixels += int64(frames[t].RawSize())
	}
	enc, err := codec.EncodeDLV(frames, codec.QualityHigh, codec.DefaultGOP)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(pixels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeDLV(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetector measures the SSD-sim detector (the dominant ETL cost).
func BenchmarkDetector(b *testing.B) {
	cfg := benchCfg()
	tr := dataset.NewTraffic(cfg)
	img, _ := tr.Render(10)
	det := vision.NewDetector(exec.New(exec.CPU), 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(img)
	}
}

// BenchmarkGEMMPerDevice compares the execution backends on the NN
// workhorse kernel.
func BenchmarkGEMMPerDevice(b *testing.B) {
	const m, n, k = 128, 128, 128
	rng := rand.New(rand.NewSource(4))
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range bb {
		bb[i] = float32(rng.NormFloat64())
	}
	for _, kind := range []exec.Kind{exec.CPU, exec.AVX, exec.GPU} {
		dev := exec.New(kind)
		b.Run(kind.String(), func(b *testing.B) {
			c := make([]float32, m*n)
			b.SetBytes(4 * (m*k + k*n + m*n))
			for i := 0; i < b.N; i++ {
				dev.GEMM(m, n, k, a, bb, c)
			}
		})
	}
}

// BenchmarkSimilarityJoinMethods compares the physical similarity-join
// operators the optimizer chooses between.
func BenchmarkSimilarityJoinMethods(b *testing.B) {
	e := sharedEnv(b)
	col, err := e.DB.Collection(bench.ColTrafficDets)
	if err != nil {
		b.Fatal(err)
	}
	peds, err := e.DB.ExecuteFilter(col, "label", core.StrV("pedestrian"), core.FilterScan)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.SimilarityJoinOpts{LeftField: "emb", RightField: "emb", Eps: 0.15, DedupUnordered: true}
	b.Run(fmt.Sprintf("nested-n%d", len(peds)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SimilarityJoinNested(peds, peds, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("batched-n%d", len(peds)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SimilarityJoinBatched(e.DB, peds, peds, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("onthefly-n%d", len(peds)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SimilarityJoinOnTheFly(peds, peds, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
