package service

// Filter evaluation glue: the resolved predicate, and the two scan access
// paths a fragment's filter stage runs when the plan names no index —
// core's vectorized columnar scan, and the row scan for fields the store
// cannot columnize.

import (
	"context"

	"repro/internal/core"
)

// filterPred is a FilterSpec resolved and type-checked against the
// schema at plan time: equality with v, or (rng) the half-open numeric
// range lo <= field < hi.
type filterPred struct {
	field  string
	rng    bool
	v      core.Value
	lo, hi float64
}

// resolve builds the filter's predicate, validating the constant (or the
// field's numeric kind, for ranges) against the collection schema.
func (f *FilterSpec) resolve(schema core.Schema) (*filterPred, error) {
	p := &filterPred{field: f.Field, rng: f.isRange()}
	if p.rng {
		p.lo, p.hi = f.bounds()
		return p, schema.ValidateFilterRange(f.Field)
	}
	var err error
	if p.v, err = f.value(); err != nil {
		return nil, err
	}
	return p, schema.ValidateFilterValue(f.Field, p.v)
}

// match is the row predicate: core.FieldRange semantics for ranges
// (non-numerics widen to NaN and fail both bounds), Value.Equal
// otherwise.
func (p *filterPred) match(mv core.Value) bool {
	if p.rng {
		fv := mv.AsFloat()
		return fv >= p.lo && fv < p.hi
	}
	return mv.Equal(p.v)
}

// columnFilter evaluates p over the fragment's columnar projection —
// zone maps skip blocks that cannot match, surviving blocks compare
// typed arrays instead of paying a map lookup per patch — and leaves the
// selection, the store and the scan record on the fragment. The
// selection is clipped to the fragment's snapshot length: the cached
// store may already reflect rows appended after the snapshot was taken,
// and snapshot prefixes are stable, so clipping by row index is exact.
// It reports false when the field has no column and the caller must run
// the row scan.
func (f *shardFragment) columnFilter(p *filterPred) bool {
	cs, info, err := f.col.ColumnsWithInfo()
	if err != nil {
		return false
	}
	var (
		sel []int32
		st  core.ScanStats
		ok  bool
	)
	if p.rng {
		sel, st, ok = cs.FilterRangeStats(p.field, p.lo, p.hi)
	} else {
		sel, st, ok = cs.FilterEqStats(p.field, p.v)
	}
	if !ok {
		return false
	}
	for len(sel) > 0 && int(sel[len(sel)-1]) >= len(f.snap) {
		sel = sel[:len(sel)-1]
	}
	if sel == nil {
		sel = []int32{} // TopK reads a nil selection as "every row"
	}
	f.sel, f.cs, f.scan, f.colInfo = sel, cs, st, info
	return true
}

// rowFilter is the row-scan fallback: the selection of snap's rows that
// carry the field and satisfy p (missing fields never match). It checks
// ctx between blocks of rows so a canceled caller (or a hedge loser)
// stops promptly instead of burning the full scan.
func rowFilter(ctx context.Context, snap []*core.Patch, p *filterPred) ([]int32, error) {
	sel := make([]int32, 0, len(snap)/4)
	for k, row := range snap {
		if k%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if mv, ok := row.Meta[p.field]; ok && p.match(mv) {
			sel = append(sel, int32(k))
		}
	}
	return sel, nil
}
