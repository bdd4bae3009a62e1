package service

// First-class kNN serving over the maintained vector indexes, as one
// more fragment kind of the scatter executor. The plan-once stage
// resolves and type-checks the query vector; each shard's fragment then
// runs like a filter's — hedged, retried and degradable (see hedge.go)
// — planning over the answering replica's own snapshot (brute scan vs
// exact ball tree, by counted work) and answering its local top-k from
// that replica's versioned VectorIndex. Both paths return the scan's
// answer with exact distances, so the gather stage sorts the
// candidates by (distance, id) and trims to the global k: every kNN
// answer is the brute-force one. With one shard the fragment is the
// whole plan and the merge is the identity.

import (
	"fmt"

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
	mv, ok := p.Get(spec.Field)
	if !ok || mv.Kind != core.KindVec {
		return nil, fmt.Errorf("service: knn source patch %d has no vector field %q", spec.SourceID, spec.Field)
	}
	return mv.Vec(), nil
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
		return fmt.Sprintf("knn-index[exact](%s, k=%d)", spec.Field, spec.K)
	}
	return fmt.Sprintf("knn-scan(%s, k=%d)", spec.Field, spec.K)
}

// knnProbe plans and runs the fragment's probe over its replica's
// snapshot (fragment plans are made over the local row count), leaving
// the local top-k in f.ns and the plan record in f.op and f.cost. A
// source-patch query probes one extra neighbor and drops the source
// itself, so the source never appears in its own result.
func (f *shardFragment) knnProbe(spec *KNNSpec, q []float32) error {
	plan := f.snap.PlanKNN(spec.Field, len(q), spec.K, spec.UseIndex)
	f.op, f.cost = knnLabel(plan, spec), plan.EstCost
	k := spec.K
	if spec.SourceID != 0 {
		k++
	}
	var ns []core.VecNeighbor
	if plan.Method == core.KNNIndex {
		vi, err := f.snap.VectorIndex(spec.Field)
		if err != nil {
			return err
		}
		ns = vi.KNN(q, k)
	} else {
		ns = f.snap.ScanKNN(spec.Field, q, k)
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
	f.ns = ns
	return nil
}

// knnRows merges the fragments' candidates by (distance, id), trims
// them to the global k and returns the neighbors as response rows
// carrying their (exact) distance. Each row is read from the snapshot
// of the fragment that found it — the answering replica's, of the
// neighbor's home shard. Nil fragments (missing shards) contribute
// nothing.
func (s *Service) knnRows(frags []*shardFragment, k int) ([]Row, error) {
	var ns []core.VecNeighbor
	for _, f := range frags {
		if f != nil {
			ns = append(ns, f.ns...)
		}
	}
	core.SortNeighbors(ns)
	if len(ns) > k {
		ns = ns[:k]
	}
	rows := make([]Row, len(ns))
	for i, n := range ns {
		snap := frags[s.shards.ShardFor(n.ID)].snap
		at, ok := snap.Find(n.ID)
		if !ok {
			return nil, fmt.Errorf("%w: neighbor %d", core.ErrNotFound, n.ID)
		}
		rows[i] = Row{tab: snap.Table(), pos: int32(at), dist: n.Dist, knn: true}
	}
	return rows, nil
}
