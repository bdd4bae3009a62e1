package core

import (
	"strings"
	"testing"
	"time"
)

func passthrough(in Stream) Stream { return in }

// testLibrary registers a small component zoo mirroring the paper's
// example: a general-purpose detector, a specialized car detector, an OCR
// generator, and transformers with a prerequisite chain.
func testLibrary() *Library {
	l := &Library{}
	l.Register(Component{
		Name: "ssd-general", Kind: KindGenerator,
		Produces:  []string{"label", "score", "bbox"},
		Labels:    []string{"car", "pedestrian", "player"},
		Precision: 0.90, Recall: 0.85, PerPatch: 8 * time.Millisecond,
		Build: passthrough,
	})
	l.Register(Component{
		Name: "car-detector", Kind: KindGenerator,
		Produces:  []string{"label", "score", "bbox"},
		Labels:    []string{"car"},
		Precision: 0.97, Recall: 0.95, PerPatch: 3 * time.Millisecond,
		Build: passthrough,
	})
	l.Register(Component{
		Name: "ocr", Kind: KindGenerator,
		Produces:  []string{"text", "score", "bbox"},
		Precision: 0.92, Recall: 0.80, PerPatch: 5 * time.Millisecond,
		Build: passthrough,
	})
	l.Register(Component{
		Name: "histogram", Kind: KindTransformer,
		Produces: []string{"hist"},
		PerPatch: 200 * time.Microsecond,
		Build:    passthrough,
	})
	l.Register(Component{
		Name: "embedder", Kind: KindTransformer,
		Produces: []string{"emb"},
		Requires: []string{"hist"}, // depends on the histogram stage
		PerPatch: 900 * time.Microsecond,
		Build:    passthrough,
	})
	l.Register(Component{
		Name: "depth", Kind: KindTransformer,
		Produces: []string{"depth"},
		Requires: []string{"bbox"},
		PerPatch: 700 * time.Microsecond,
		Build:    passthrough,
	})
	return l
}

func TestSynthesizePrefersSpecializedCheaperDetector(t *testing.T) {
	l := testLibrary()
	sp, err := l.Synthesize(Requirement{
		NeedLabel:    "car",
		MinPrecision: 0.9,
		MinRecall:    0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both detectors cover "car", but the specialized one is cheaper AND
	// meets the higher accuracy floor that the general one misses.
	if sp.Generator.Name != "car-detector" {
		t.Fatalf("chose %s", sp.Generator.Name)
	}
}

func TestSynthesizeFallsBackToGeneralDetector(t *testing.T) {
	l := testLibrary()
	sp, err := l.Synthesize(Requirement{NeedLabel: "pedestrian"})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Generator.Name != "ssd-general" {
		t.Fatalf("chose %s", sp.Generator.Name)
	}
}

func TestSynthesizeImpossibleLabel(t *testing.T) {
	l := testLibrary()
	_, err := l.Synthesize(Requirement{NeedLabel: "bicycle"})
	if err == nil {
		t.Fatal("synthesized a pipeline for an unproducible label")
	}
	if !strings.Contains(err.Error(), "bicycle") {
		t.Fatalf("error does not name the label: %v", err)
	}
}

func TestSynthesizeTransformerChainWithPrereqs(t *testing.T) {
	l := testLibrary()
	sp, err := l.Synthesize(Requirement{
		NeedLabel:  "car",
		NeedFields: []string{"emb", "depth"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// emb requires hist, so the chain must include histogram before
	// embedder; depth requires bbox (from the generator).
	idx := map[string]int{}
	for i, c := range sp.Transformers {
		idx[c.Name] = i
	}
	for _, want := range []string{"histogram", "embedder", "depth"} {
		if _, ok := idx[want]; !ok {
			t.Fatalf("chain missing %s: %v", want, idx)
		}
	}
	if idx["histogram"] > idx["embedder"] {
		t.Fatalf("prerequisite ordering broken: %v", idx)
	}
	if sp.TotalPerPatch <= sp.Generator.PerPatch {
		t.Fatalf("total latency %v not accumulating transformers", sp.TotalPerPatch)
	}
}

func TestSynthesizeMissingTransformer(t *testing.T) {
	l := testLibrary()
	_, err := l.Synthesize(Requirement{NeedLabel: "car", NeedFields: []string{"segmask"}})
	if err == nil || !strings.Contains(err.Error(), "segmask") {
		t.Fatalf("err = %v", err)
	}
}

func TestSynthesizeLatencyBudget(t *testing.T) {
	l := testLibrary()
	// Budget below every generator: must fail and say so.
	_, err := l.Synthesize(Requirement{NeedLabel: "car", MaxPerPatch: time.Millisecond})
	if err == nil {
		t.Fatal("impossible budget satisfied")
	}
	// Budget that fits the specialized detector only.
	sp, err := l.Synthesize(Requirement{NeedLabel: "car", MaxPerPatch: 4 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Generator.Name != "car-detector" {
		t.Fatalf("chose %s", sp.Generator.Name)
	}
}

func TestSynthesizedPipelineBuilds(t *testing.T) {
	l := &Library{}
	gen := Component{
		Name: "fanout", Kind: KindGenerator,
		Labels: []string{"car"}, Produces: []string{"label"},
		Build: func(in Stream) Stream {
			return Transform(in, func(p *Patch) ([]*Patch, error) {
				return []*Patch{p, p}, nil // two patches per input
			})
		},
	}
	tr := Component{
		Name: "mark", Kind: KindTransformer, Produces: []string{"marked"},
		Build: func(in Stream) Stream {
			return Transform(in, func(p *Patch) ([]*Patch, error) {
				p.Meta["marked"] = IntV(1)
				return []*Patch{p}, nil
			})
		},
	}
	l.Register(gen)
	l.Register(tr)
	sp, err := l.Synthesize(Requirement{NeedLabel: "car", NeedFields: []string{"marked"}})
	if err != nil {
		t.Fatal(err)
	}
	in := FromPatches([]*Patch{{Meta: Metadata{}}, {Meta: Metadata{}}})
	out, err := Collect(sp.Build(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("pipeline emitted %d patches, want 4", len(out))
	}
	for _, p := range out {
		if metaVal(p, "marked").Int() != 1 {
			t.Fatal("transformer did not run")
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	l := &Library{}
	if err := l.Register(Component{Name: "", Kind: KindGenerator, Build: passthrough}); err == nil {
		t.Fatal("nameless component registered")
	}
	if err := l.Register(Component{Name: "x", Kind: KindGenerator}); err == nil {
		t.Fatal("component without Build registered")
	}
	// Replacement by name.
	l.Register(Component{Name: "x", Kind: KindGenerator, PerPatch: time.Second, Build: passthrough})
	l.Register(Component{Name: "x", Kind: KindGenerator, PerPatch: time.Millisecond, Build: passthrough})
	if cs := l.Components(); len(cs) != 1 || cs[0].PerPatch != time.Millisecond {
		t.Fatalf("replacement broken: %+v", cs)
	}
}
