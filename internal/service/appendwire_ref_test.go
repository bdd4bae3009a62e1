package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
)

// The reference the /append decoder is checked against: the decode the
// handler ran before it read bodies itself — encoding/json into an
// AppendRequest with unknown fields disallowed, specs, and the spec
// conversion with metaValue's map[string]any coercion as it was then.

// refDecodeAppend decodes body as handleAppend did.
func refDecodeAppend(body []byte) (AppendRequest, error) {
	var req AppendRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// refPatches converts a decoded request's specs against schema as
// Service.Append did.
func refPatches(req AppendRequest, schema core.Schema) ([]*core.Patch, error) {
	specs := req.specs()
	patches := make([]*core.Patch, len(specs))
	for i, sp := range specs {
		p, err := refPatch(sp, schema)
		if err != nil {
			return nil, fmt.Errorf("service: append patch %d: %w", i, err)
		}
		patches[i] = p
	}
	return patches, nil
}

func refPatch(sp PatchSpec, schema core.Schema) (*core.Patch, error) {
	p := &core.Patch{
		Ref:  core.Ref{Source: sp.Source, Frame: sp.Frame, Parent: core.PatchID(sp.Parent)},
		Meta: make(core.Metadata, len(sp.Meta)+2),
	}
	for k, v := range sp.Meta {
		val, err := refMetaValue(schema, k, v)
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

func refMetaValue(schema core.Schema, field string, v any) (core.Value, error) {
	fd := schema.FieldNamed(field)
	switch x := v.(type) {
	case string:
		return core.StrV(x), nil
	case float64:
		if fd != nil && fd.Kind == core.KindInt {
			if x != math.Trunc(x) {
				return core.Value{}, fmt.Errorf("declared int, got fractional %g", x)
			}
			if math.Abs(x) >= 1<<53 {
				return core.Value{}, fmt.Errorf("declared int, got %g (outside the exactly-representable range)", x)
			}
			return core.IntV(int64(x)), nil
		}
		if fd != nil && fd.Kind == core.KindFloat {
			return core.FloatV(x), nil
		}
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
			return core.RectOf(vec), nil
		}
		return core.VecV(vec), nil
	default:
		return core.Value{}, fmt.Errorf("unsupported JSON value %T", v)
	}
}
