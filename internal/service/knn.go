package service

// First-class kNN serving over the maintained vector indexes. The probe
// scatters: every shard plans over its own snapshot (brute scan vs exact
// ball tree vs approximate LSH, by size/dimensionality/recall target),
// answers its local top-k from its shard-local versioned VectorIndex,
// and the gather stage k-way merges the candidate streams by (distance,
// id) — every path, the approximate one included, reports exact
// distances — and trims to the global k. With one shard the fragment is
// the whole plan and the merge is the identity.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
)

// knnQueryVec resolves the request's query vector: the inline vector,
// or the source patch's vector under the query field.
func knnQueryVec(spec *KNNSpec, scol *core.ShardedCollection) ([]float32, error) {
	if len(spec.Query) > 0 {
		return spec.Query, nil
	}
	p, err := scol.Get(core.PatchID(spec.SourceID))
	if err != nil {
		return nil, fmt.Errorf("service: knn source patch %d: %w", spec.SourceID, err)
	}
	mv, ok := p.Meta[spec.Field]
	if !ok || mv.Kind != core.KindVec {
		return nil, fmt.Errorf("service: knn source patch %d has no vector field %q", spec.SourceID, spec.Field)
	}
	return mv.V, nil
}

// knnCheckDim validates the query field and vector against the schema:
// the field must be a declared vector field, and the query must match
// its dimensionality when one is declared.
func knnCheckDim(schema core.Schema, field string, q []float32) error {
	fd := schema.FieldNamed(field)
	if fd == nil {
		return fmt.Errorf("service: knn field %q is not declared in the schema", field)
	}
	if fd.Kind != core.KindVec {
		return fmt.Errorf("service: knn field %q is not a vector field", field)
	}
	if fd.VecDim > 0 && len(q) != fd.VecDim {
		return fmt.Errorf("service: knn query vector on %q has dim %d, schema declares %d",
			field, len(q), fd.VecDim)
	}
	return nil
}

// knnLabel renders the physical plan operator.
func knnLabel(plan core.KNNPlan, spec *KNNSpec) string {
	if plan.Method == core.KNNIndex {
		return fmt.Sprintf("knn-index[%s](%s, k=%d)", plan.Mode, spec.Field, spec.K)
	}
	return fmt.Sprintf("knn-scan(%s, k=%d)", spec.Field, spec.K)
}

// knnProbe executes the planned probe over one collection snapshot. A
// source-patch query probes one extra neighbor and drops the source
// itself, so the source never appears in its own result.
func knnProbe(col *core.Collection, snap []*core.Patch, ver uint64, spec *KNNSpec, q []float32, plan core.KNNPlan) ([]core.VecNeighbor, error) {
	k := spec.K
	if spec.SourceID != 0 {
		k++
	}
	var ns []core.VecNeighbor
	if plan.Method == core.KNNIndex {
		vi, err := col.VectorIndexAt(snap, ver, spec.Field, plan.Mode)
		if err != nil {
			return nil, err
		}
		ns = vi.KNN(q, k)
	} else {
		ns = core.BruteKNN(snap, spec.Field, q, k)
	}
	if spec.SourceID != 0 {
		src := core.PatchID(spec.SourceID)
		kept := ns[:0]
		for _, n := range ns {
			if n.ID != src {
				kept = append(kept, n)
			}
		}
		ns = kept
	}
	if len(ns) > spec.K {
		ns = ns[:spec.K]
	}
	return ns, nil
}

// knnRows materializes the neighbor list as response rows: the usual
// scalar projection plus a _dist column with the (exact) distance.
func knnRows(ns []core.VecNeighbor, scol *core.ShardedCollection) ([]map[string]any, error) {
	ps := make([]*core.Patch, len(ns))
	for i, n := range ns {
		p, err := scol.Get(n.ID)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	rows := projectRows(ps)
	for i := range rows {
		rows[i]["_dist"] = ns[i].Dist
	}
	return rows, nil
}

// sortKNN orders neighbors canonically: ascending (distance, id).
func sortKNN(ns []core.VecNeighbor) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Dist != ns[j].Dist {
			return ns[i].Dist < ns[j].Dist
		}
		return ns[i].ID < ns[j].ID
	})
}

// knnFragment is one shard's partial kNN answer: its local top-k
// candidates with exact distances, plus the fragment's plan record.
type knnFragment struct {
	ns    []core.VecNeighbor
	label string
	cost  float64
}

// executeKNNScatter serves a kNN request: plan-per-shard (each shard's
// snapshot has its own size), probe every shard's local index in
// parallel, k-way merge the candidate streams by (distance, id), and
// trim to the global k.
func (s *Service) executeKNNScatter(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec := req.KNN
	s.tel.knnQueries.Inc()
	scol, err := s.shards.Collection(req.Collection)
	if err != nil {
		return nil, err
	}
	nsh := scol.Shards()
	s.tel.scatterQueries.Inc()
	s.tel.fanout.Observe(float64(nsh))

	q, err := knnQueryVec(spec, scol)
	if err != nil {
		return nil, err
	}
	if err := knnCheckDim(scol.Schema(), spec.Field, q); err != nil {
		return nil, err
	}

	// ---- scatter: per-shard planned probes against shard-local indexes ----
	frags := make([]*knnFragment, nsh)
	errs := make([]error, nsh)
	s.scatterWave(nsh, func(i int) error {
		sp := req.tr.Begin("knn-fragment")
		frags[i], errs[i] = s.knnShardProbe(ctx, scol, i, spec, q)
		sp.End()
		if f := frags[i]; f != nil {
			sp.AttrInt("shard", int64(i)).
				AttrInt("candidates", int64(len(f.ns))).
				Attr("path", f.label)
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	missing, err := s.missingShards(req, errs)
	if err != nil {
		return nil, err
	}

	// ---- gather: k-way merge by (distance, id), global trim ----
	mergeStart := time.Now()
	mg := req.tr.Begin("knn-merge")
	resp := &Response{Degraded: len(missing) > 0, MissingShards: missing}
	var merged []core.VecNeighbor
	label := ""
	for _, frag := range frags {
		if frag == nil {
			continue
		}
		merged = append(merged, frag.ns...)
		resp.EstCostSec += frag.cost
		if label == "" {
			label = frag.label
		}
	}
	sortKNN(merged)
	if len(merged) > spec.K {
		merged = merged[:spec.K]
	}
	resp.Value = len(merged)
	if resp.Rows, err = knnRows(merged, scol); err != nil {
		mg.End()
		return nil, err
	}
	const gather = "gather-knn"
	resp.Plan = s.scatterPlan(nsh, 0, []string{label}, gather)
	mg.Attr("gather", gather).AttrInt("rows", int64(len(resp.Rows))).End()
	s.mergeNS.Add(time.Since(mergeStart).Nanoseconds())
	return resp, nil
}

// knnShardProbe plans and runs shard i's fragment over its own snapshot
// and shard-local vector index. Fragment plans are made over the local
// row count.
func (s *Service) knnShardProbe(ctx context.Context, scol *core.ShardedCollection, i int, spec *KNNSpec, q []float32) (*knnFragment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	col := scol.Shard(i)
	snap, ver, err := col.Snapshot()
	if err != nil {
		return nil, err
	}
	plan := s.cost.PlanKNN(len(snap), len(q), spec.K, spec.Exact, spec.RecallFloor, spec.UseIndex)
	ns, err := knnProbe(col, snap, ver, spec, q, plan)
	if err != nil {
		return nil, err
	}
	return &knnFragment{ns: ns, label: knnLabel(plan, spec), cost: plan.EstCost}, nil
}
