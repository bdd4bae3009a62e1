package core

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// This file implements the paper's §4 "Future Work: Pipeline Synthesis":
// given a library of registered generators and transformers — each scored
// with a precision/recall profile and a latency estimate — declaratively
// choose the pipeline that satisfies a query's accuracy and latency
// constraints. The type system makes this possible: each component
// declares what labels/fields it can produce, so the synthesizer knows
// which components are interchangeable for a requirement (§4.2's
// motivation).

// ComponentKind distinguishes patch generators from transformers.
type ComponentKind int

// Registered component kinds.
const (
	KindGenerator ComponentKind = iota + 1
	KindTransformer
)

// Component is a registered pipeline stage with its measured profile.
type Component struct {
	Name string
	Kind ComponentKind
	// Produces lists the metadata fields this component adds.
	Produces []string
	// Labels is the closed label domain for generators that classify
	// (empty otherwise). A requirement for a label outside every
	// component's domain is unsatisfiable — detected at synthesis time.
	Labels []string
	// Requires lists fields that must already exist (transformer inputs).
	Requires []string
	// Precision/Recall score the component on its reference dataset.
	Precision, Recall float64
	// PerPatch is the measured per-input latency.
	PerPatch time.Duration
	// Build wires the component into a stream pipeline.
	Build func(Stream) Stream
}

// Library is the registry the synthesizer draws from.
type Library struct {
	components []Component
}

// Register adds a component; later registrations with the same name
// replace earlier ones.
func (l *Library) Register(c Component) error {
	if c.Name == "" || c.Kind == 0 {
		return fmt.Errorf("core: component needs a name and kind")
	}
	if c.Build == nil {
		return fmt.Errorf("core: component %q needs a Build function", c.Name)
	}
	for i := range l.components {
		if l.components[i].Name == c.Name {
			l.components[i] = c
			return nil
		}
	}
	l.components = append(l.components, c)
	return nil
}

// Components lists the registry in registration order.
func (l *Library) Components() []Component {
	return append([]Component(nil), l.components...)
}

// Requirement states what a query needs from the ETL pipeline.
type Requirement struct {
	// NeedFields are the metadata fields the query consumes.
	NeedFields []string
	// NeedLabel, when set, requires a generator whose label domain
	// contains it (the paper's car-detector example).
	NeedLabel string
	// MinPrecision/MinRecall bound the acceptable accuracy profile of the
	// chosen generator.
	MinPrecision, MinRecall float64
	// MaxPerPatch bounds total per-patch latency (0 = unbounded).
	MaxPerPatch time.Duration
}

// SynthesizedPipeline is the synthesizer's output.
type SynthesizedPipeline struct {
	Generator    Component
	Transformers []Component
	// TotalPerPatch is the summed latency estimate.
	TotalPerPatch time.Duration
	// Explain records why this pipeline was chosen.
	Explain string
}

// Build wires the synthesized pipeline over an input stream.
func (sp SynthesizedPipeline) Build(in Stream) Stream {
	out := sp.Generator.Build(in)
	for _, t := range sp.Transformers {
		out = t.Build(out)
	}
	return out
}

// Synthesize picks the cheapest generator satisfying the label and
// accuracy requirements, then adds the cheapest transformer chain covering
// the required fields (resolving transformer prerequisites transitively).
func (l *Library) Synthesize(req Requirement) (SynthesizedPipeline, error) {
	// 1. Candidate generators: label domain and accuracy floor.
	var gens []Component
	for _, c := range l.components {
		if c.Kind != KindGenerator {
			continue
		}
		if req.NeedLabel != "" && !inDomain(req.NeedLabel, c.Labels) {
			continue
		}
		if c.Precision < req.MinPrecision || c.Recall < req.MinRecall {
			continue
		}
		gens = append(gens, c)
	}
	if len(gens) == 0 {
		if req.NeedLabel != "" {
			return SynthesizedPipeline{}, fmt.Errorf(
				"core: no registered generator can produce label %q at precision >= %.2f, recall >= %.2f",
				req.NeedLabel, req.MinPrecision, req.MinRecall)
		}
		return SynthesizedPipeline{}, fmt.Errorf(
			"core: no registered generator meets precision >= %.2f, recall >= %.2f",
			req.MinPrecision, req.MinRecall)
	}
	// Cheapest first; ties broken toward higher recall (the scarce
	// resource in detection pipelines).
	sort.SliceStable(gens, func(i, j int) bool {
		if gens[i].PerPatch != gens[j].PerPatch {
			return gens[i].PerPatch < gens[j].PerPatch
		}
		return gens[i].Recall > gens[j].Recall
	})

	var lastErr error
	for _, gen := range gens {
		chain, err := l.coverFields(gen, req.NeedFields)
		if err != nil {
			lastErr = err
			continue
		}
		total := gen.PerPatch
		for _, t := range chain {
			total += t.PerPatch
		}
		if req.MaxPerPatch > 0 && total > req.MaxPerPatch {
			lastErr = fmt.Errorf("core: cheapest pipeline via %q needs %v per patch, budget is %v",
				gen.Name, total, req.MaxPerPatch)
			continue
		}
		names := make([]string, 0, len(chain))
		for _, t := range chain {
			names = append(names, t.Name)
		}
		return SynthesizedPipeline{
			Generator:     gen,
			Transformers:  chain,
			TotalPerPatch: total,
			Explain: fmt.Sprintf("generator %s (P=%.2f R=%.2f, %v/patch) + transformers %v",
				gen.Name, gen.Precision, gen.Recall, gen.PerPatch, names),
		}, nil
	}
	return SynthesizedPipeline{}, lastErr
}

// coverFields greedily selects transformers until every needed field is
// produced, resolving Requires prerequisites; cheapest producer first.
func (l *Library) coverFields(gen Component, need []string) ([]Component, error) {
	have := map[string]bool{}
	for _, f := range gen.Produces {
		have[f] = true
	}
	var chain []Component
	pending := append([]string(nil), need...)
	for iter := 0; len(pending) > 0; iter++ {
		if iter > len(l.components)+len(need)+4 {
			return nil, fmt.Errorf("core: transformer prerequisite cycle while covering %v", pending)
		}
		field := pending[0]
		pending = pending[1:]
		if have[field] {
			continue
		}
		best := -1
		bestLatency := time.Duration(math.MaxInt64)
		for i, c := range l.components {
			if c.Kind != KindTransformer {
				continue
			}
			if !inDomain(field, c.Produces) {
				continue
			}
			if c.PerPatch < bestLatency {
				best, bestLatency = i, c.PerPatch
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("core: no registered transformer produces field %q", field)
		}
		c := l.components[best]
		// Prerequisites first, then the transformer's own outputs.
		for _, r := range c.Requires {
			if !have[r] {
				pending = append(pending, r)
			}
		}
		chain = append(chain, c)
		for _, f := range c.Produces {
			have[f] = true
		}
	}
	// Topologically order the chain so prerequisites run before their
	// consumers (Kahn's algorithm over the Requires/Produces edges).
	chain = dedupeComponents(chain)
	return topoSort(chain)
}

func dependsOn(a, b Component) bool {
	for _, r := range a.Requires {
		if inDomain(r, b.Produces) {
			return true
		}
	}
	return false
}

func topoSort(chain []Component) ([]Component, error) {
	indeg := make([]int, len(chain))
	adj := make([][]int, len(chain))
	for i := range chain {
		for j := range chain {
			if i != j && dependsOn(chain[j], chain[i]) {
				adj[i] = append(adj[i], j) // i must run before j
				indeg[j]++
			}
		}
	}
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue) // deterministic among independents
	out := make([]Component, 0, len(chain))
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		out = append(out, chain[i])
		for _, j := range adj[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(out) != len(chain) {
		return nil, fmt.Errorf("core: transformer dependency cycle in synthesized chain")
	}
	return out, nil
}

func dedupeComponents(cs []Component) []Component {
	seen := map[string]bool{}
	out := cs[:0]
	for _, c := range cs {
		if !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c)
		}
	}
	return out
}
