package core

import (
	"fmt"

	"repro/internal/tensor"
)

// DataSpec types a patch's dense payload. The paper's §4.2 notes that
// almost all deployed networks require fixed input resolutions, so the
// type system carries resolution and dimensionality and validates
// consumers against them.
type DataSpec struct {
	DType tensor.DType
	// For pixel data: fixed height/width (0 = variable). For feature
	// data: Dim is the vector length (0 = variable).
	H, W, Dim int
}

// Pixels describes H x W x 3 uint8 pixel payloads (0 = variable extent).
func Pixels(h, w int) DataSpec { return DataSpec{DType: tensor.U8, H: h, W: w} }

// Features describes dim-length float32 payloads.
func Features(dim int) DataSpec { return DataSpec{DType: tensor.F32, Dim: dim} }

// Field declares one metadata key: its kind, an optional closed label
// domain (for strings produced by a closed-world model), and the vector
// dimension for KindVec.
type Field struct {
	Name   string
	Kind   ValueKind
	Domain []string // optional: the closed world of values this field takes
	VecDim int      // for KindVec: expected dimension (0 = variable)
}

// Schema types a patch collection.
type Schema struct {
	Data   DataSpec
	Fields []Field
}

// FieldNamed returns the declared field, or nil.
func (s Schema) FieldNamed(name string) *Field {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return &s.Fields[i]
		}
	}
	return nil
}

// WithField returns a copy of s with f added (replacing a same-named
// field), the schema algebra transformers use to declare their outputs.
func (s Schema) WithField(f Field) Schema {
	out := Schema{Data: s.Data, Fields: make([]Field, 0, len(s.Fields)+1)}
	replaced := false
	for _, g := range s.Fields {
		if g.Name == f.Name {
			out.Fields = append(out.Fields, f)
			replaced = true
		} else {
			out.Fields = append(out.Fields, g)
		}
	}
	if !replaced {
		out.Fields = append(out.Fields, f)
	}
	return out
}

// ValidatePatch checks p against the schema: payload dtype/shape and every
// declared metadata field's kind, domain and dimension. Undeclared
// metadata keys are permitted (schemas are open, like the paper's
// dictionaries); declared keys must be present and well-typed.
func (s Schema) ValidatePatch(p *Patch) error {
	if p.Data != nil {
		if p.Data.DType != s.Data.DType {
			return fmt.Errorf("core: payload dtype %v, schema wants %v", p.Data.DType, s.Data.DType)
		}
		switch s.Data.DType {
		case tensor.U8:
			if len(p.Data.Shape) != 3 || p.Data.Shape[2] != 3 {
				return fmt.Errorf("core: pixel payload must be HxWx3, got %v", p.Data.Shape)
			}
			if s.Data.H != 0 && p.Data.Shape[0] != s.Data.H {
				return fmt.Errorf("core: payload height %d, schema fixes %d", p.Data.Shape[0], s.Data.H)
			}
			if s.Data.W != 0 && p.Data.Shape[1] != s.Data.W {
				return fmt.Errorf("core: payload width %d, schema fixes %d", p.Data.Shape[1], s.Data.W)
			}
		case tensor.F32:
			if s.Data.Dim != 0 && p.Data.Numel() != s.Data.Dim {
				return fmt.Errorf("core: feature payload dim %d, schema fixes %d", p.Data.Numel(), s.Data.Dim)
			}
		}
	}
	for _, f := range s.Fields {
		v, ok := p.Get(f.Name)
		if !ok {
			return fmt.Errorf("core: patch missing declared field %q", f.Name)
		}
		if v.Kind != f.Kind {
			return fmt.Errorf("core: field %q has kind %v, schema declares %v", f.Name, v.Kind, f.Kind)
		}
		if f.Kind == KindStr && len(f.Domain) > 0 && !inDomain(v.Str(), f.Domain) {
			return fmt.Errorf("core: field %q value %q outside closed domain %v", f.Name, v.Str(), f.Domain)
		}
		if f.Kind == KindVec && f.VecDim != 0 && len(v.Vec()) != f.VecDim {
			return fmt.Errorf("core: field %q vector dim %d, schema declares %d", f.Name, len(v.Vec()), f.VecDim)
		}
	}
	return nil
}

func inDomain(s string, domain []string) bool {
	for _, d := range domain {
		if d == s {
			return true
		}
	}
	return false
}

// ValidateFilterValue checks a filter predicate's constant against the
// schema — the paper's example of pipeline validation: a filter on a label
// that a detector can never emit is a plan-time error, not a silently
// empty result.
func (s Schema) ValidateFilterValue(field string, v Value) error {
	f := s.FieldNamed(field)
	if f == nil {
		return fmt.Errorf("core: filter on undeclared field %q", field)
	}
	if f.Kind != v.Kind {
		return fmt.Errorf("core: filter constant kind %v, field %q has kind %v", v.Kind, field, f.Kind)
	}
	if f.Kind == KindStr && len(f.Domain) > 0 && !inDomain(v.Str(), f.Domain) {
		return fmt.Errorf("core: filter value %q can never be produced: field %q domain is %v", v.Str(), field, f.Domain)
	}
	return nil
}

// ValidateFilterRange checks a range predicate's field against the
// schema: it must be declared and numeric. A range over a string or
// vector field can never match (AsFloat widens non-numerics to NaN,
// which fails both bounds), so it is a plan-time error, not a silently
// empty result — the same validation posture as ValidateFilterValue.
func (s Schema) ValidateFilterRange(field string) error {
	f := s.FieldNamed(field)
	if f == nil {
		return fmt.Errorf("core: filter on undeclared field %q", field)
	}
	if f.Kind != KindInt && f.Kind != KindFloat {
		return fmt.Errorf("core: range filter on field %q of kind %v (numeric field required)", field, f.Kind)
	}
	return nil
}
