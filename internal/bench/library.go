package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/vision"
)

// NewLibrary registers the environment's real vision components for the
// pipeline synthesizer (paper §4 future work), with latency profiles
// measured against a sample frame on the environment's device and
// accuracy profiles from the reference calibration.
func (e *Env) NewLibrary() (*core.Library, error) {
	l := &core.Library{}
	sample, _ := e.Traffic.Render(0)
	patch := sample.Crop(20, 20, 52, 52)

	detLat := measure(func() { e.Det.Detect(sample) })
	ocrLat := measure(func() { e.DocOCR.Recognize(sample) })
	jerseyLat := measure(func() { e.JerseyOCR.Recognize(patch) })
	histLat := measure(func() { vision.ColorHistogram(patch) })
	ghistLat := measure(func() { vision.RandomProject(vision.GridHistogram(patch, 3), 64) })
	embLat := measure(func() { e.Emb.Embed(patch) })
	depthLat := measure(func() { e.Depth.Predict(patch, 20, 20, 52, 52) })

	components := []core.Component{
		{
			Name: "ssd-sim", Kind: core.KindGenerator,
			Produces: []string{"label", "score", "bbox", "frameno"},
			Labels:   vision.ClassNames(),
			// Reference calibration: clean-frame detection accuracy from
			// the vision test suite.
			Precision: 0.90, Recall: 0.85,
			PerPatch: detLat,
			Build:    func(in core.Stream) core.Stream { return core.DetectGenerator(e.Det, in) },
		},
		{
			Name: "doc-ocr", Kind: core.KindGenerator,
			Produces:  []string{"text", "score", "bbox", "frameno"},
			Precision: 0.95, Recall: 0.85,
			PerPatch: ocrLat,
			Build:    func(in core.Stream) core.Stream { return core.OCRGenerator(e.DocOCR, in) },
		},
		{
			Name: "jersey-ocr", Kind: core.KindGenerator,
			Produces:  []string{"text", "score", "bbox", "frameno"},
			Precision: 0.90, Recall: 0.70,
			PerPatch: jerseyLat,
			Build:    func(in core.Stream) core.Stream { return core.OCRGenerator(e.JerseyOCR, in) },
		},
		{
			Name: "histogram", Kind: core.KindTransformer,
			Produces: []string{"hist"},
			PerPatch: histLat,
			Build:    core.HistogramTransformer,
		},
		{
			Name: "grid-histogram", Kind: core.KindTransformer,
			Produces: []string{"ghist"},
			PerPatch: ghistLat,
			Build: func(in core.Stream) core.Stream {
				return core.GridHistogramTransformer(3, in)
			},
		},
		{
			Name: "embedder", Kind: core.KindTransformer,
			Produces: []string{"emb"},
			PerPatch: embLat,
			Build: func(in core.Stream) core.Stream {
				return core.EmbedTransformer(e.Emb, in)
			},
		},
		{
			Name: "depth", Kind: core.KindTransformer,
			Produces: []string{"depth"},
			Requires: []string{"bbox"},
			PerPatch: depthLat,
			Build: func(in core.Stream) core.Stream {
				return core.DepthTransformer(e.Depth, in)
			},
		},
	}
	for _, c := range components {
		if err := l.Register(c); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// measure times fn over a few runs (coarse per-call latency for the
// synthesizer's cost model).
func measure(fn func()) time.Duration {
	const runs = 3
	start := time.Now()
	for i := 0; i < runs; i++ {
		fn()
	}
	d := time.Since(start) / runs
	if d <= 0 {
		d = time.Microsecond
	}
	return d
}

// SynthesizeQ6Pipeline demonstrates the synthesizer end to end: q6 needs
// pedestrian labels with per-patch depth, so the synthesized pipeline must
// be detector -> depth transformer. Used by tests and the example.
func (e *Env) SynthesizeQ6Pipeline() (core.SynthesizedPipeline, error) {
	l, err := e.NewLibrary()
	if err != nil {
		return core.SynthesizedPipeline{}, err
	}
	return l.Synthesize(core.Requirement{
		NeedLabel:  "pedestrian",
		NeedFields: []string{"depth"},
	})
}
