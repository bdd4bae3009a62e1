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

// ErrAppendStorage reports a storage failure while committing a
// validated append batch; the parts of the shards before the failing one
// are committed (the error says how many rows). The HTTP layer maps it
// to a 500: a retryable server fault, not a malformed request.
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
	// Appended is the number of patches committed (on a storage error,
	// some may have committed; the error says how many).
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

// Append converts, validates and commits the request's patches as one
// batch: a malformed spec rejects it without partial commit, each shard
// commits its part whole, and only a storage failure can leave some
// shards' parts committed (reported in the error). Every patch routes to
// its hash-designated home shard via core.Sharded placement.
func (s *Service) Append(ctx context.Context, req AppendRequest) (*AppendResponse, error) {
	specs := req.specs()
	return s.appendPatches(ctx, req.Collection, len(specs), func(sl *core.Sealer) ([]*core.Patch, error) {
		patches := make([]*core.Patch, len(specs))
		for i, sp := range specs {
			p, err := sp.patch(sl)
			if err != nil {
				return nil, fmt.Errorf("service: append patch %d: %w", i, err)
			}
			patches[i] = p
		}
		return patches, nil
	})
}

// appendPatches is the commit path both append adapters share: the
// Go API's AppendRequest and /append's body decoder. It rejects in a
// fixed order — closed service, canceled context, no collection or no
// patches, a full append gate (429), an unknown collection (404) — and
// only then calls build, which seals the n patches through a Sealer of
// the collection's, and commits them as one AppendBatch. The Sealer's
// slots go back to the collection when it returns.
func (s *Service) appendPatches(ctx context.Context, collection string, n int, build func(*core.Sealer) ([]*core.Patch, error)) (*AppendResponse, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if collection == "" {
		return nil, errors.New("service: append needs a collection")
	}
	if n == 0 {
		return nil, errors.New("service: append needs a patch or a patches batch")
	}
	// Appends commit inline on the caller's goroutine — they never enter
	// the worker queue, so a write burst can't deadlock behind queued
	// reads — but pass a concurrency cap of their own: past it, reject
	// immediately (HTTP 429) instead of letting unbounded writers pile in.
	if !s.tryAppendSlot() {
		s.tel.admissionShed.Inc()
		return nil, errAppendGateFull
	}
	defer s.releaseAppendSlot()

	sc, err := s.shards.Collection(collection)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	sl := sc.Sealer(n)
	defer sl.Release() // once the commit re-pointed the rows at their tables
	patches, err := build(sl)
	if err != nil {
		return nil, err
	}
	committed, err := sc.AppendBatch(patches)
	s.noteAppended(collection, committed)
	switch {
	case errors.Is(err, core.ErrInvalidPatch):
		return nil, err
	case err != nil: // a storage fault: HTTP 500, retryable
		return nil, fmt.Errorf("%w: %d of %d patches committed: %v", ErrAppendStorage, committed, len(patches), err)
	}
	ids := make([]uint64, len(patches))
	for i, p := range patches {
		ids[i] = uint64(p.ID)
	}
	dur := time.Since(start)
	s.tel.appendDur.Observe(dur.Seconds())
	return &AppendResponse{
		Collection: collection,
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

// patch converts a spec against the collection schema into a committed
// row, which s seals.
func (sp PatchSpec) patch(s *core.Sealer) (*core.Patch, error) {
	schema := s.Schema()
	p := &core.Patch{Ref: core.Ref{Source: sp.Source, Frame: sp.Frame, Parent: core.PatchID(sp.Parent)}}
	pairs := make([]core.Pair, 0, len(sp.Meta))
	for k, v := range sp.Meta {
		val, err := metaValue(schema.FieldNamed(k), anyTok(v))
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", k, err)
		}
		pairs = append(pairs, core.Pair{Key: k, Value: val})
	}
	s.Seal(p, pairs)
	return p, nil
}

// tokKind is the JSON shape of a metaTok.
type tokKind uint8

const (
	tokBad     tokKind = iota // a JSON value no metadata kind takes; s names its type
	tokStr                    // a string, in s
	tokNum                    // a number, in f
	tokVec                    // an array of numbers, in v
	tokBadElem                // an array whose element elem is no number; s names its type
)

// metaTok is one metadata value as JSON carried it, before the schema
// gives it a kind: a scalar or a vector. Both append adapters produce
// it — anyTok from a map[string]any value, the /append decoder from the
// body's bytes — and metaValue coerces it, so the rules exist once.
type metaTok struct {
	kind tokKind
	s    string
	f    float64
	v    []float32
	elem int
}

// anyTok is the token of a value encoding/json decoded into an any.
func anyTok(v any) metaTok {
	switch x := v.(type) {
	case string:
		return metaTok{kind: tokStr, s: x}
	case float64:
		return metaTok{kind: tokNum, f: x}
	case []any:
		vec := make([]float32, len(x))
		for i, e := range x {
			f, ok := e.(float64)
			if !ok {
				return metaTok{kind: tokBadElem, elem: i, s: fmt.Sprintf("%T", e)}
			}
			vec[i] = float32(f)
		}
		return metaTok{kind: tokVec, v: vec}
	}
	return metaTok{kind: tokBad, s: fmt.Sprintf("%T", v)}
}

// metaValue coerces one metadata token to its core.Value, the declared
// field fd's kind first (nil when undeclared), the JSON shape second.
func metaValue(fd *core.Field, t metaTok) (core.Value, error) {
	switch t.kind {
	case tokStr:
		return core.StrV(t.s), nil
	case tokNum:
		x := t.f
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
	case tokVec:
		if fd != nil && fd.Kind == core.KindRect {
			if len(t.v) != 4 {
				return core.Value{}, fmt.Errorf("declared rect, got %d elements", len(t.v))
			}
			return core.RectOf(t.v), nil
		}
		return core.VecV(t.v), nil
	case tokBadElem:
		return core.Value{}, fmt.Errorf("vector element %d is %s, want number", t.elem, t.s)
	default:
		return core.Value{}, fmt.Errorf("unsupported JSON value %s", t.s)
	}
}
