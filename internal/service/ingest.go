package service

// Live ingest: the streaming append path. ETL materializes collections
// in batch; this file lets clients keep appending — one patch or a
// frame's worth at a time — while the same collections serve queries.
// Appends route through the storage layer's placement (core.Sharded's
// deterministic PatchID-hash routing), bump the collection version so version-keyed fingerprints
// can never serve stale results, and eagerly reclaim the collection's
// result-cache entries by prefix. The columnar read side absorbs the
// stream incrementally: the next query's Collection.Columns() call
// extends the cached ColumnStore in place (sealed blocks reused, only
// the tail re-projected) instead of rebuilding from scratch — the
// counters in /stats (appends, column_extends, extend_reuse_blocks)
// make that visible.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// ErrAppendStorage reports a storage-layer failure while committing an
// already-validated append batch. Patches before the failing one are
// committed (the error text says how many); the HTTP layer maps it to a
// 500 so clients and load balancers treat it as a retryable server
// fault rather than a malformed request.
var ErrAppendStorage = errors.New("service: append storage failure")

// AppendRequest appends patches to a materialized collection: a single
// Patch, a batched Patches list (frame-at-a-time ingest), or both
// (Patch is appended first).
type AppendRequest struct {
	Collection string      `json:"collection"`
	Patch      *PatchSpec  `json:"patch,omitempty"`
	Patches    []PatchSpec `json:"patches,omitempty"`
}

// PatchSpec is the JSON shape of one ingested patch: lineage reference
// plus scalar/vector metadata. Pixel payloads are not carried over the
// ingest API — upstream UDFs run before ingest, so what streams in is
// their structured output (the paper's ETL split, applied live).
//
// Meta values map to core kinds by the collection schema: numbers
// coerce to the declared int/float kind (int fields reject fractional
// values), strings to str, arrays of numbers to vec/rect. Values for
// undeclared fields infer their kind from JSON (integral numbers
// become ints, others floats).
type PatchSpec struct {
	Source string         `json:"source,omitempty"`
	Frame  uint64         `json:"frame,omitempty"`
	Parent uint64         `json:"parent,omitempty"`
	Meta   map[string]any `json:"meta"`
}

// AppendResponse reports one append request's outcome.
type AppendResponse struct {
	Collection string `json:"collection"`
	// Appended is the number of patches committed (on error, patches
	// before the failing one may have committed; the error names it).
	Appended int `json:"appended"`
	// IDs are the allocated patch ids, in append order.
	IDs []uint64 `json:"ids"`
	// Version is the collection version after the batch (the composite
	// version past one shard) — the dataset identity subsequent query
	// fingerprints will carry.
	Version    uint64  `json:"version"`
	DurationMS float64 `json:"duration_ms"`
}

// specs flattens the single-patch and batched forms.
func (r *AppendRequest) specs() []PatchSpec {
	if r.Patch == nil {
		return r.Patches
	}
	return append([]PatchSpec{*r.Patch}, r.Patches...)
}

// Append validates, converts and commits the request's patches. The
// whole batch is schema-checked before the first write, so a malformed
// spec rejects the batch without partial commit; only a storage failure
// can leave a prefix committed (reported in the error). Every patch
// routes to its hash-designated home shard via core.Sharded placement.
func (s *Service) Append(ctx context.Context, req AppendRequest) (*AppendResponse, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if req.Collection == "" {
		return nil, errors.New("service: append needs a collection")
	}
	specs := req.specs()
	if len(specs) == 0 {
		return nil, errors.New("service: append needs a patch or a patches batch")
	}
	// Appends commit inline on the caller's goroutine — they never enter
	// the worker queue, so a write burst can't deadlock behind queued
	// reads — but they pass the same admission gate via a concurrency
	// cap: past it, reject immediately with a cost-aware Retry-After
	// (HTTP 429) instead of letting unbounded writers pile in.
	release, err := s.adm.admitAppend()
	if err != nil {
		s.tel.rejected.Inc()
		s.tel.admissionShed.Inc()
		return nil, err
	}
	defer release()

	sc, err := s.shards.Collection(req.Collection)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	patches := make([]*core.Patch, len(specs))
	for i, sp := range specs {
		p, err := sp.patch(sc.Schema())
		if err != nil {
			return nil, fmt.Errorf("service: append patch %d: %w", i, err)
		}
		patches[i] = p
	}
	ids := make([]uint64, 0, len(patches))
	for i, p := range patches {
		if err := sc.Append(p); err != nil {
			// The batch pre-validated, so this is a storage-layer fault,
			// not a bad request: wrap the sentinel so the HTTP layer can
			// answer 500 (retryable server fault with a committed prefix)
			// instead of 400.
			s.noteAppended(req.Collection, len(ids))
			return nil, fmt.Errorf("%w: patch %d (after %d committed): %v", ErrAppendStorage, i, len(ids), err)
		}
		ids = append(ids, uint64(p.ID))
	}
	s.noteAppended(req.Collection, len(ids))
	dur := time.Since(start)
	s.tel.appendDur.Observe(dur.Seconds())
	s.adm.observe(classAppend, dur)
	return &AppendResponse{
		Collection: req.Collection,
		Appended:   len(ids),
		IDs:        ids,
		Version:    sc.Version(),
		DurationMS: float64(dur.Microseconds()) / 1000,
	}, nil
}

// noteAppended records ingest counters and performs the precise
// result-cache invalidation: version-keyed fingerprints already make
// stale hits impossible, so only this collection's entries — identified
// by their key prefix — are dropped to reclaim their bytes; every other
// collection's hot results stay cached.
func (s *Service) noteAppended(collection string, n int) {
	if n == 0 {
		return
	}
	s.tel.appends.Inc()
	s.tel.appendedRows.Add(int64(n))
	s.results.InvalidatePrefix("q:" + collection + ":")
}

// patch converts a spec against the collection schema. Lineage fields
// _source/_frame are stamped here (Collection.Append re-stamps them
// identically) so the pre-commit schema validation sees the same patch
// the storage layer will.
func (sp PatchSpec) patch(schema core.Schema) (*core.Patch, error) {
	p := &core.Patch{
		Ref:  core.Ref{Source: sp.Source, Frame: sp.Frame, Parent: core.PatchID(sp.Parent)},
		Meta: make(core.Metadata, len(sp.Meta)+2),
	}
	for k, v := range sp.Meta {
		val, err := metaValue(schema, k, v)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", k, err)
		}
		p.Meta[k] = val
	}
	p.Meta["_source"] = core.StrV(p.Ref.Source)
	p.Meta["_frame"] = core.IntV(int64(p.Ref.Frame))
	if err := schema.ValidatePatch(p); err != nil {
		return nil, err
	}
	return p, nil
}

// metaValue coerces one JSON metadata value to its core.Value, schema
// kind first, JSON shape second.
func metaValue(schema core.Schema, field string, v any) (core.Value, error) {
	fd := schema.FieldNamed(field)
	switch x := v.(type) {
	case string:
		return core.StrV(x), nil
	case float64:
		if fd != nil && fd.Kind == core.KindInt {
			if x != math.Trunc(x) {
				return core.Value{}, fmt.Errorf("declared int, got fractional %g", x)
			}
			// Past 2^53 a float64 no longer represents every integer, and
			// past MaxInt64 the conversion itself is implementation-defined
			// — reject rather than commit a garbage value.
			if math.Abs(x) >= 1<<53 {
				return core.Value{}, fmt.Errorf("declared int, got %g (outside the exactly-representable range)", x)
			}
			return core.IntV(int64(x)), nil
		}
		if fd != nil && fd.Kind == core.KindFloat {
			return core.FloatV(x), nil
		}
		// Undeclared: integral JSON numbers ingest as ints, like the ETL
		// generators write counters, others as floats.
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return core.IntV(int64(x)), nil
		}
		return core.FloatV(x), nil
	case []any:
		vec := make([]float32, len(x))
		for i, e := range x {
			f, ok := e.(float64)
			if !ok {
				return core.Value{}, fmt.Errorf("vector element %d is %T, want number", i, e)
			}
			vec[i] = float32(f)
		}
		if fd != nil && fd.Kind == core.KindRect {
			if len(vec) != 4 {
				return core.Value{}, fmt.Errorf("declared rect, got %d elements", len(vec))
			}
			return core.Value{Kind: core.KindRect, V: vec}, nil
		}
		return core.VecV(vec), nil
	default:
		return core.Value{}, fmt.Errorf("unsupported JSON value %T", v)
	}
}
