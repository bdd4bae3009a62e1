// Package core implements DeepLens's data model and query processing
// engine: unordered collections of image patches with typed key-value
// metadata, Volcano-style iterator operators (select, project, joins,
// aggregation), materialization with secondary indexes, tuple-level
// lineage, and a cost-based physical planner. This is the paper's primary
// contribution (§2-§5): a "narrow waist" that decouples how patches are
// generated (decoding, neural inference, OCR) from how they are queried.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/tensor"
)

// PatchID uniquely identifies a patch within a DB.
type PatchID uint64

// Ref is a patch's provenance pointer (the paper's ImgRef): the base
// source and frame it derives from, plus the parent patch when it was
// derived from another patch rather than directly from a base image.
// Every operator preserves Ref, maintaining a lineage chain back to raw
// data (§5.1).
type Ref struct {
	Source string  // base collection / video name
	Frame  uint64  // frame number or image index within Source
	Parent PatchID // deriving patch, 0 when derived from the base image
}

// Patch is the unit of data (§2.2): a pointer to its origin, an
// n-dimensional dense payload (pixels or features), and typed metadata.
type Patch struct {
	ID   PatchID
	Ref  Ref
	Data *tensor.Tensor
	Meta Metadata
}

// Tuple is a row flowing between operators: one patch per joined input.
type Tuple []*Patch

// ValueKind types a metadata value.
type ValueKind uint8

// Metadata value kinds.
const (
	KindInt ValueKind = iota + 1
	KindFloat
	KindStr
	KindVec  // float32 vector (features)
	KindRect // bounding box x1,y1,x2,y2
)

func (k ValueKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindStr:
		return "string"
	case KindVec:
		return "vec"
	case KindRect:
		return "rect"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a typed metadata value.
type Value struct {
	Kind ValueKind
	I    int64
	F    float64
	S    string
	V    []float32
}

// Convenience constructors.
func IntV(v int64) Value     { return Value{Kind: KindInt, I: v} }
func FloatV(v float64) Value { return Value{Kind: KindFloat, F: v} }
func StrV(v string) Value    { return Value{Kind: KindStr, S: v} }
func VecV(v []float32) Value { return Value{Kind: KindVec, V: v} }
func RectV(x1, y1, x2, y2 float64) Value {
	return Value{Kind: KindRect, V: []float32{float32(x1), float32(y1), float32(x2), float32(y2)}}
}

// Equal compares two values of any kind.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	case KindStr:
		return v.S == o.S
	case KindVec, KindRect:
		if len(v.V) != len(o.V) {
			return false
		}
		for i := range v.V {
			if v.V[i] != o.V[i] {
				return false
			}
		}
		return true
	}
	return false
}

// Less orders comparable values (int/float/string); vec/rect are not
// ordered and always return false.
func (v Value) Less(o Value) bool {
	if v.Kind != o.Kind {
		return v.Kind < o.Kind
	}
	switch v.Kind {
	case KindInt:
		return v.I < o.I
	case KindFloat:
		return v.F < o.F
	case KindStr:
		return v.S < o.S
	}
	return false
}

// AsFloat widens numeric values; NaN for non-numeric.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	}
	return math.NaN()
}

// SortKey encodes comparable values into an order-preserving byte string
// (for B+ tree indexing). Vec/rect values are not indexable this way.
// Floats that compare equal share one key (-0 is +0), and every NaN
// takes the canonical NaN's key, which sorts past +Inf.
func (v Value) SortKey() ([]byte, error) {
	return v.AppendSortKey(make([]byte, 0, 9+len(v.S)))
}

// AppendSortKey appends v's SortKey to dst and returns the extended
// slice, so a caller with a reused buffer encodes keys without
// allocating.
func (v Value) AppendSortKey(dst []byte) ([]byte, error) {
	switch v.Kind {
	case KindInt:
		return binary.BigEndian.AppendUint64(append(dst, byte(KindInt)), uint64(v.I)^(1<<63)), nil // order-preserving for signed
	case KindFloat:
		f := v.F
		switch {
		case f == 0:
			f = 0
		case f != f:
			f = math.NaN()
		}
		bits := math.Float64bits(f)
		if bits>>63 == 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		return binary.BigEndian.AppendUint64(append(dst, byte(KindFloat)), bits), nil
	case KindStr:
		return append(append(dst, byte(KindStr)), v.S...), nil
	default:
		return nil, fmt.Errorf("core: %v values have no sort key", v.Kind)
	}
}

// Metadata is a patch's key-value dictionary.
type Metadata map[string]Value

// Clone deep-copies m.
func (m Metadata) Clone() Metadata {
	out := make(Metadata, len(m))
	for k, v := range m {
		if v.V != nil {
			v.V = append([]float32(nil), v.V...)
		}
		out[k] = v
	}
	return out
}

// Keys returns the metadata keys in sorted order.
func (m Metadata) Keys() []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// errCorrupt reports a malformed serialized patch.
var errCorrupt = errors.New("core: corrupt serialized patch")

// Marshal serializes a patch for storage. It sizes the encoding first
// and writes it into one allocation; the keys sort on the stack for
// metadata of up to 16 fields.
func (p *Patch) Marshal() []byte {
	var arr [16]string
	keys := arr[:0]
	for k := range p.Meta {
		keys = append(keys, k)
	}
	slices.Sort(keys)

	n := uvarintLen(uint64(p.ID)) + strLen(p.Ref.Source) + uvarintLen(p.Ref.Frame) + uvarintLen(uint64(p.Ref.Parent))
	dataLen := 0
	if p.Data != nil {
		dataLen = p.Data.MarshalSize()
	}
	n += uvarintLen(uint64(dataLen)) + dataLen + uvarintLen(uint64(len(p.Meta)))
	for _, k := range keys {
		v := p.Meta[k]
		n += strLen(k) + 1
		switch v.Kind {
		case KindInt:
			n += uvarintLen(uint64(v.I))
		case KindFloat:
			n += uvarintLen(math.Float64bits(v.F))
		case KindStr:
			n += strLen(v.S)
		case KindVec, KindRect:
			n += uvarintLen(uint64(len(v.V))) + 4*len(v.V)
		}
	}

	buf := make([]byte, 0, n)
	buf = binary.AppendUvarint(buf, uint64(p.ID))
	buf = appendStr(buf, p.Ref.Source)
	buf = binary.AppendUvarint(buf, p.Ref.Frame)
	buf = binary.AppendUvarint(buf, uint64(p.Ref.Parent))
	buf = binary.AppendUvarint(buf, uint64(dataLen))
	if p.Data != nil {
		buf = p.Data.AppendMarshal(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Meta)))
	for _, k := range keys {
		v := p.Meta[k]
		buf = append(appendStr(buf, k), byte(v.Kind))
		switch v.Kind {
		case KindInt:
			buf = binary.AppendUvarint(buf, uint64(v.I))
		case KindFloat:
			buf = binary.AppendUvarint(buf, math.Float64bits(v.F))
		case KindStr:
			buf = appendStr(buf, v.S)
		case KindVec, KindRect:
			buf = binary.AppendUvarint(buf, uint64(len(v.V)))
			for _, f := range v.V {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
			}
		}
	}
	return buf
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// strLen is the length of s's length-prefixed encoding.
func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func appendStr(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// UnmarshalPatch parses a patch serialized by Marshal.
func UnmarshalPatch(buf []byte) (*Patch, error) {
	pos := 0
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errCorrupt
		}
		pos += n
		return v, nil
	}
	getStr := func() (string, error) {
		l, err := getU()
		if err != nil {
			return "", err
		}
		if pos+int(l) > len(buf) {
			return "", errCorrupt
		}
		s := string(buf[pos : pos+int(l)])
		pos += int(l)
		return s, nil
	}
	p := &Patch{Meta: Metadata{}}
	id, err := getU()
	if err != nil {
		return nil, err
	}
	p.ID = PatchID(id)
	if p.Ref.Source, err = getStr(); err != nil {
		return nil, err
	}
	if p.Ref.Frame, err = getU(); err != nil {
		return nil, err
	}
	parent, err := getU()
	if err != nil {
		return nil, err
	}
	p.Ref.Parent = PatchID(parent)
	dlen, err := getU()
	if err != nil {
		return nil, err
	}
	if dlen > 0 {
		if pos+int(dlen) > len(buf) {
			return nil, errCorrupt
		}
		t, err := tensor.Unmarshal(buf[pos : pos+int(dlen)])
		if err != nil {
			return nil, err
		}
		p.Data = t
		pos += int(dlen)
	}
	nmeta, err := getU()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nmeta; i++ {
		k, err := getStr()
		if err != nil {
			return nil, err
		}
		if pos >= len(buf) {
			return nil, errCorrupt
		}
		kind := ValueKind(buf[pos])
		pos++
		var v Value
		v.Kind = kind
		switch kind {
		case KindInt:
			u, err := getU()
			if err != nil {
				return nil, err
			}
			v.I = int64(u)
		case KindFloat:
			u, err := getU()
			if err != nil {
				return nil, err
			}
			v.F = math.Float64frombits(u)
		case KindStr:
			if v.S, err = getStr(); err != nil {
				return nil, err
			}
		case KindVec, KindRect:
			l, err := getU()
			if err != nil {
				return nil, err
			}
			if pos+4*int(l) > len(buf) {
				return nil, errCorrupt
			}
			v.V = make([]float32, l)
			for j := range v.V {
				v.V[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[pos:]))
				pos += 4
			}
		default:
			return nil, errCorrupt
		}
		p.Meta[k] = v
	}
	return p, nil
}

// Clone deep-copies a patch (shared tensors are copied too).
func (p *Patch) Clone() *Patch {
	c := &Patch{ID: p.ID, Ref: p.Ref, Meta: p.Meta.Clone()}
	if p.Data != nil {
		c.Data = p.Data.Clone()
	}
	return c
}
