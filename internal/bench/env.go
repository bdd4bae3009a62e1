// Package bench implements the paper's benchmark (§6): the six queries
// q1-q6 over the PC, TrafficCam and Football datasets, with baseline and
// hand-tuned physical designs, plus one experiment runner per paper figure
// and table (§7). The deeplens-bench command and the repository's
// bench_test.go both drive this package.
package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/vision"
)

// Env is a fully ingested benchmark environment: datasets generated,
// ETL executed, patch collections materialized.
type Env struct {
	Cfg dataset.Config
	DB  *core.DB
	// Shards is set instead of DB when the environment was ingested into
	// a horizontally partitioned database (NewShardedReplicaEnv): the same ETL
	// pipelines run, but every patch routes to its hash-designated shard.
	Shards *core.Sharded
	Dir    string

	Traffic  *dataset.Traffic
	Football *dataset.Football
	PC       *dataset.PC

	Det               *vision.Detector
	Emb               *vision.Embedder
	Depth             *vision.DepthModel
	DocOCR, JerseyOCR *vision.OCR

	// ETLTime records the patch-generation cost per collection (the
	// paper separates "ETL time" from "query time", §7.2).
	ETLTime map[string]time.Duration
}

// Collections materialized by the ETL phase.
const (
	ColTrafficDets = "traffic.dets" // detections: label, score, bbox, emb, depth
	ColPCImages    = "pc.images"    // whole images: hist, emb
	ColPCWords     = "pc.words"     // OCR words from PC images
	ColFBDets      = "fb.dets"      // football player detections
	ColFBWords     = "fb.words"     // jersey OCR words (lineage -> fb.dets)
)

// ModelSeed fixes all model weights.
const ModelSeed = 42

// NewEnv generates datasets and runs the full ETL on the given device,
// materializing every collection the queries need.
func NewEnv(dir string, cfg dataset.Config, dev exec.Device) (*Env, error) {
	return NewEnvAt(filepath.Join(dir, "deeplens.db"), dir, cfg, dev)
}

// NewEnvAt is NewEnv with an explicit database path. When the database
// already holds the materialized collections (a prior ingest), the ETL
// phase is skipped and the existing collections are reused.
func NewEnvAt(dbPath, dir string, cfg dataset.Config, dev exec.Device) (*Env, error) {
	db, err := core.Open(dbPath, dev)
	if err != nil {
		return nil, err
	}
	e := newEnvModels(cfg, dir, dev)
	e.DB = db
	if _, err := db.Collection(ColTrafficDets); err == nil {
		return e, nil // already ingested: reuse materialized collections
	}
	// A one-shard wrapper allocates exactly the ids and versions the DB
	// would on its own.
	if err := e.runETL(core.WrapSharded(db)); err != nil {
		db.Close()
		return nil, err
	}
	return e, nil
}

// NewShardedReplicaEnv generates datasets and runs the full ETL into an
// n-shard partitioned database rooted at dir (shard subdirectories
// dir/shard-NNN) with r replicas per shard (dir/shard-NNN-rK beside the
// primaries): the ETL runs once and every append fans out to all
// replicas of its home shard, so the replicas come up byte-identical and
// the hedged-read serving path has somewhere to fail over to. A prior
// sharded ingest is reused; a prior ingest with a different shard count
// fails with core.ErrShardMismatch.
func NewShardedReplicaEnv(dir string, cfg dataset.Config, n, r int, dev exec.Device) (*Env, error) {
	sdb, err := core.OpenShardedReplicas(dir, n, r, dev)
	if err != nil {
		return nil, err
	}
	e := newEnvModels(cfg, dir, dev)
	e.Shards = sdb
	if _, err := sdb.Collection(ColTrafficDets); err == nil {
		return e, nil // already ingested: reuse materialized shards
	}
	if err := e.runETL(sdb); err != nil {
		sdb.Close()
		return nil, err
	}
	return e, nil
}

// newEnvModels builds the dataset generators and UDF models shared by
// every environment flavor.
func newEnvModels(cfg dataset.Config, dir string, dev exec.Device) *Env {
	e := &Env{
		Cfg: cfg, Dir: dir,
		Traffic:   dataset.NewTraffic(cfg),
		Football:  dataset.NewFootball(cfg),
		PC:        dataset.NewPC(cfg),
		Det:       vision.NewDetector(dev, ModelSeed),
		Emb:       vision.NewEmbedder(dev, ModelSeed),
		DocOCR:    vision.NewDocumentOCR(),
		JerseyOCR: vision.NewJerseyOCR(),
		ETLTime:   map[string]time.Duration{},
	}
	e.Depth = vision.NewDepthModel(dev, e.Traffic.Scene.Horizon, e.Traffic.Scene.Focal, ModelSeed)
	return e
}

// Close releases the environment.
func (e *Env) Close() error {
	if e.Shards != nil {
		return e.Shards.Close()
	}
	return e.DB.Close()
}

// trafficFrames streams rendered TrafficCam frames as whole-frame patches.
func (e *Env) trafficFrames() core.Stream {
	return func(yield func(*core.Patch, error) bool) {
		for t := 0; t < e.Traffic.Frames; t++ {
			img, _ := e.Traffic.Render(t)
			if !yield(framePatch("trafficcam", uint64(t), img), nil) {
				return
			}
		}
	}
}

func framePatch(source string, frame uint64, img *codec.Image) *core.Patch {
	return &core.Patch{
		Ref:  core.Ref{Source: source, Frame: frame},
		Data: core.ImageToTensor(img),
		Meta: core.Metadata{
			"frameno": core.IntV(int64(frame)),
			"width":   core.IntV(int64(img.W)),
			"height":  core.IntV(int64(img.H)),
		},
	}
}

// runETL executes every pipeline and materializes the outputs into s,
// routing each patch to its home shard.
func (e *Env) runETL(s *core.Sharded) error {
	// TrafficCam: detect -> embed -> depth (pedestrian geometry).
	start := time.Now()
	dets := core.DetectGenerator(e.Det, e.trafficFrames())
	dets = core.EmbedTransformer(e.Emb, dets)
	dets = core.DepthTransformer(e.Depth, dets)
	trafficSchema := core.DetectionSchema().
		WithField(core.Field{Name: "emb", Kind: core.KindVec, VecDim: e.Emb.Dim()}).
		WithField(core.Field{Name: "depth", Kind: core.KindFloat})
	dets = core.DropData(dets)
	dets = ensureDepth(dets)
	if _, err := s.Materialize(ColTrafficDets, trafficSchema, dets); err != nil {
		return fmt.Errorf("traffic ETL: %w", err)
	}
	e.ETLTime[ColTrafficDets] = time.Since(start)

	// PC corpus: whole images with hist + emb; OCR words.
	start = time.Now()
	imgs := make([]*codec.Image, len(e.PC.Images))
	for i := range e.PC.Images {
		imgs[i] = e.PC.Images[i].Image
	}
	pcIt := core.FromImages("pc", imgs)
	pcIt = core.HistogramTransformer(pcIt)
	pcIt = core.GridHistogramTransformer(3, pcIt)
	pcIt = core.EmbedTransformer(e.Emb, pcIt)
	pcIt = core.DropData(pcIt)
	pcSchema := core.Schema{
		Data: core.Pixels(0, 0),
		Fields: []core.Field{
			{Name: "frameno", Kind: core.KindInt},
			{Name: "hist", Kind: core.KindVec, VecDim: vision.HistogramDim},
			{Name: "ghist", Kind: core.KindVec, VecDim: 64},
			{Name: "emb", Kind: core.KindVec, VecDim: e.Emb.Dim()},
		},
	}
	if _, err := s.Materialize(ColPCImages, pcSchema, pcIt); err != nil {
		return fmt.Errorf("pc images ETL: %w", err)
	}
	words := core.OCRGenerator(e.DocOCR, core.FromImages("pc", imgs))
	words = core.DropData(words)
	if _, err := s.Materialize(ColPCWords, core.OCRSchema(), words); err != nil {
		return fmt.Errorf("pc words ETL: %w", err)
	}
	e.ETLTime[ColPCImages] = time.Since(start)

	// Football: per-clip detection; jersey OCR over detection patches
	// (lineage: word.Parent -> detection patch).
	start = time.Now()
	fbSchema := core.DetectionSchema().
		WithField(core.Field{Name: "clip", Kind: core.KindInt})
	fbDets, err := s.CreateCollection(ColFBDets, fbSchema)
	if err != nil {
		return err
	}
	fbWords, err := s.CreateCollection(ColFBWords,
		core.OCRSchema().WithField(core.Field{Name: "clip", Kind: core.KindInt}))
	if err != nil {
		return err
	}
	for c, clip := range e.Football.Clips {
		source := fmt.Sprintf("football%02d", c)
		for t := 0; t < e.Football.ClipLen; t++ {
			img, _ := clip.Render(t)
			frame := framePatch(source, uint64(t), img)
			detPatches, err := core.Collect(core.DetectGenerator(e.Det, core.FromPatches([]*core.Patch{frame})))
			if err != nil {
				return err
			}
			for _, dp := range detPatches {
				dp.Meta["clip"] = core.IntV(int64(c))
				// Materialize the detection without its pixels first, so
				// words' Parent resolves; OCR reads a copy that keeps them.
				withPixels := *dp
				dp.Data = nil
				if err := fbDets.Append(dp); err != nil {
					return err
				}
				withPixels.ID = dp.ID
				wordPatches, err := core.Collect(core.OCRGenerator(e.JerseyOCR, core.FromPatches([]*core.Patch{&withPixels})))
				if err != nil {
					return err
				}
				for _, wp := range wordPatches {
					wp.Meta["clip"] = core.IntV(int64(c))
					wp.Data = nil
					if err := fbWords.Append(wp); err != nil {
						return err
					}
				}
			}
		}
	}
	e.ETLTime[ColFBDets] = time.Since(start)
	return s.Flush()
}

// ensureDepth fills a zero depth for non-pedestrian detections whose bbox
// geometry the depth model was not applied to, keeping the schema total.
func ensureDepth(in core.Stream) core.Stream {
	return core.Transform(in, func(p *core.Patch) ([]*core.Patch, error) {
		if _, ok := p.Get("depth"); !ok {
			p.Meta["depth"] = core.FloatV(0)
		}
		return []*core.Patch{p}, nil
	})
}
