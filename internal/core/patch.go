// Package core implements DeepLens's data model and query processing
// engine: unordered collections of image patches with typed key-value
// metadata, ETL stages as Go iterators over patches (generators,
// transformers, Materialize), one selection executor (Snapshot.Select) over
// rows, columns or an index, similarity and range joins, materialization
// with secondary indexes, tuple-level lineage, and a cost-based physical
// planner. This is the paper's primary contribution (§2-§5): a "narrow
// waist" that decouples how patches are generated (decoding, neural
// inference, OCR) from how they are queried.
package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"unsafe"

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
//
// A patch has two forms. A builder is what producers fill in: its
// metadata is the Meta map. Sealing (Seal, or Append, which seals a
// builder before it commits it) turns it into a committed row, whose
// metadata is a key-sorted slice of pairs and whose Meta is nil. A
// committed row is immutable: collections, snapshots, indexes and
// replicas share it. Its lineage attributes _source and _frame are not
// stored among the pairs; Get and Range answer them from Ref. Read
// metadata through Get and Range, which serve both forms.
type Patch struct {
	ID   PatchID
	Ref  Ref
	Data *tensor.Tensor
	Meta Metadata // the builder's metadata; nil once sealed

	// pairs is a sealed patch's metadata, sorted by key, without the
	// lineage keys. It is nil exactly while the patch is a builder: a
	// sealed patch without other metadata holds an empty, non-nil slice.
	pairs []Pair
}

// Pair is one metadata entry: a key and its value.
type Pair struct {
	Key   string
	Value Value
}

// Lineage attribute keys, in key order: a committed row answers them
// from its Ref.
const (
	frameKey  = "_frame"
	sourceKey = "_source"
)

// sealed reports whether p is a committed row rather than a builder.
func (p *Patch) sealed() bool { return p.pairs != nil }

// Get returns the metadata value under name.
func (p *Patch) Get(name string) (Value, bool) {
	if p.pairs == nil {
		v, ok := p.Meta[name]
		return v, ok
	}
	switch name {
	case frameKey:
		return IntV(int64(p.Ref.Frame)), true
	case sourceKey:
		return StrV(p.Ref.Source), true
	}
	// A binary search by index: a comparison function would copy each
	// 40-byte pair it is handed.
	lo, hi := 0, len(p.pairs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.pairs[m].Key < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(p.pairs) && p.pairs[lo].Key == name {
		return p.pairs[lo].Value, true
	}
	return Value{}, false
}

// Range calls yield with each metadata entry in ascending key order,
// until yield returns false. A committed row yields its lineage
// attributes in their key positions.
func (p *Patch) Range(yield func(string, Value) bool) {
	var arr [16]Pair
	for _, e := range p.entries(arr[:0]) {
		if !yield(e.Key, e.Value) {
			return
		}
	}
}

// entries appends the entries Range yields to dst, in its order.
func (p *Patch) entries(dst []Pair) []Pair {
	if p.pairs == nil {
		start := len(dst)
		for k, v := range p.Meta {
			dst = append(dst, Pair{k, v})
		}
		sortPairs(dst[start:])
		return dst
	}
	lineage := [2]Pair{{frameKey, IntV(int64(p.Ref.Frame))}, {sourceKey, StrV(p.Ref.Source)}}
	l := 0
	for i := range p.pairs {
		for ; l < len(lineage) && lineage[l].Key < p.pairs[i].Key; l++ {
			dst = append(dst, lineage[l])
		}
		dst = append(dst, p.pairs[i])
	}
	return append(dst, lineage[l:]...)
}

// sortPairs sorts ps by key, stably. A row has a handful of keys, which
// an insertion sort orders fastest; a long row takes a merge sort.
func sortPairs(ps []Pair) {
	if len(ps) > 12 {
		slices.SortStableFunc(ps, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
		return
	}
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Key < ps[j-1].Key; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Seal makes p a committed row whose metadata is entries: sorted by
// key, the first of a repeated key kept and the lineage keys dropped,
// since Get answers them from Ref. Meta is set to nil. entries becomes
// p's: the caller must not touch its array afterwards.
func (p *Patch) Seal(entries []Pair) {
	sortPairs(entries)
	n := 0
	for i := range entries {
		k := entries[i].Key
		if (i > 0 && k == entries[i-1].Key) || k == frameKey || k == sourceKey {
			continue
		}
		if n != i {
			entries[n] = entries[i]
		}
		n++
	}
	clear(entries[n:])
	if entries == nil {
		entries = []Pair{}
	}
	p.Meta, p.pairs = nil, entries[:n]
}

// Builder returns p itself while p is a builder, and otherwise a new
// builder with p's id, lineage and payload whose Meta holds a copy of
// every entry p's Range yields: how a transformer adds fields to a
// committed row's data without touching the row.
func (p *Patch) Builder() *Patch {
	if p.pairs == nil {
		return p
	}
	b := &Patch{ID: p.ID, Ref: p.Ref, Data: p.Data, Meta: make(Metadata, len(p.pairs)+2)}
	for k, v := range p.Range {
		b.Meta[k] = v.clone()
	}
	return b
}

// Tuple is a join pair: the left patch and the right patch it matched.
type Tuple [2]*Patch

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

// Value is a typed metadata value in three words: n holds an int's bits,
// a float's Float64bits, or a string's or vector's length, and p points
// at the string's bytes or the vector's first element (nil for a number
// and a nil vector). p is a real pointer, so a value keeps its payload
// alive. Read the payload through Int, Float, Str and Vec; each returns
// its zero value on a kind it does not hold.
type Value struct {
	p    unsafe.Pointer
	n    uint64
	Kind ValueKind
}

// Convenience constructors.
func IntV(v int64) Value     { return Value{n: uint64(v), Kind: KindInt} }
func FloatV(v float64) Value { return Value{n: math.Float64bits(v), Kind: KindFloat} }
func StrV(v string) Value {
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v)), Kind: KindStr}
}

// VecV wraps v without copying it. A nil v and an empty non-nil v each
// read back as they were.
func VecV(v []float32) Value { return sliceValue(KindVec, v) }

func RectV(x1, y1, x2, y2 float64) Value {
	return RectOf([]float32{float32(x1), float32(y1), float32(x2), float32(y2)})
}

// RectOf wraps a bounding box x1,y1,x2,y2 held in v, without copying it.
func RectOf(v []float32) Value { return sliceValue(KindRect, v) }

func sliceValue(k ValueKind, v []float32) Value {
	return Value{p: unsafe.Pointer(unsafe.SliceData(v)), n: uint64(len(v)), Kind: k}
}

// Int returns an int value's integer, and 0 for any other kind.
func (v Value) Int() int64 {
	if v.Kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// Float returns a float value's number, and 0 for any other kind.
func (v Value) Float() float64 {
	if v.Kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.n)
}

// Str returns a string value's string, and "" for any other kind.
func (v Value) Str() string {
	if v.Kind != KindStr {
		return ""
	}
	return unsafe.String((*byte)(v.p), v.n)
}

// Vec returns a vec or rect value's elements, and nil for any other
// kind. The slice aliases the value's: its capacity is its length.
func (v Value) Vec() []float32 {
	if v.Kind != KindVec && v.Kind != KindRect {
		return nil
	}
	return unsafe.Slice((*float32)(v.p), v.n)
}

// String formats v for people: an int, a float as %g, a string as it
// is, and a vector or rect as [a b …].
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindStr:
		return v.Str()
	case KindVec, KindRect:
		return fmt.Sprint(v.Vec())
	}
	return v.Kind.String()
}

// Equal compares two values of any kind.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.n == o.n
	case KindFloat:
		return v.Float() == o.Float()
	case KindStr:
		return v.Str() == o.Str()
	case KindVec, KindRect:
		return slices.Equal(v.Vec(), o.Vec())
	}
	return false
}

// Compare orders comparable values: -1 when v orders before o, +1 when
// after, 0 when neither does. Kinds order by Kind, then ints, floats and
// strings by value; vec/rect values, and a NaN against any float,
// compare 0.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		return cmp.Compare(v.Kind, o.Kind)
	}
	switch v.Kind {
	case KindInt:
		return cmp.Compare(v.Int(), o.Int())
	case KindFloat:
		switch a, b := v.Float(), o.Float(); {
		case a < b:
			return -1
		case a > b:
			return 1
		}
	case KindStr:
		return strings.Compare(v.Str(), o.Str())
	}
	return 0
}

// AsFloat widens numeric values; NaN for non-numeric.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.Int())
	case KindFloat:
		return v.Float()
	}
	return math.NaN()
}

// SortKey encodes comparable values into an order-preserving byte string
// (for B+ tree indexing). Vec/rect values are not indexable this way.
// Floats that compare equal share one key (-0 is +0), and every NaN
// takes the canonical NaN's key, which sorts past +Inf.
func (v Value) SortKey() ([]byte, error) {
	return v.AppendSortKey(make([]byte, 0, 9+len(v.Str())))
}

// AppendSortKey appends v's SortKey to dst and returns the extended
// slice, so a caller with a reused buffer encodes keys without
// allocating.
func (v Value) AppendSortKey(dst []byte) ([]byte, error) {
	switch v.Kind {
	case KindInt:
		return binary.BigEndian.AppendUint64(append(dst, byte(KindInt)), v.n^(1<<63)), nil // order-preserving for signed
	case KindFloat:
		f := v.Float()
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
		return append(append(dst, byte(KindStr)), v.Str()...), nil
	default:
		return nil, fmt.Errorf("core: %v values have no sort key", v.Kind)
	}
}

// Metadata is a builder patch's key-value dictionary.
type Metadata map[string]Value

// Clone deep-copies m.
func (m Metadata) Clone() Metadata {
	out := make(Metadata, len(m))
	for k, v := range m {
		out[k] = v.clone()
	}
	return out
}

// clone copies v with its own vector. A nil vector stays nil and an
// empty one stays empty.
func (v Value) clone() Value {
	if vec := v.Vec(); vec != nil {
		return sliceValue(v.Kind, append(make([]float32, 0, len(vec)), vec...))
	}
	return v
}

// errCorrupt reports a malformed serialized patch.
var errCorrupt = errors.New("core: corrupt serialized patch")

// Marshal serializes a patch for storage: the pairs of its sealed form
// in key order, so never the lineage attributes, which Ref holds. It
// sizes the encoding first and writes it into one allocation.
func (p *Patch) Marshal() []byte {
	es := p.pairs
	if es == nil {
		var arr [16]Pair
		es = slices.DeleteFunc(p.entries(arr[:0]), func(e Pair) bool { return e.Key == frameKey || e.Key == sourceKey })
	}
	n := uvarintLen(uint64(p.ID)) + strLen(p.Ref.Source) + uvarintLen(p.Ref.Frame) + uvarintLen(uint64(p.Ref.Parent))
	dataLen := 0
	if p.Data != nil {
		dataLen = p.Data.MarshalSize()
	}
	n += uvarintLen(uint64(dataLen)) + dataLen + uvarintLen(uint64(len(es)))
	for i := range es {
		v := &es[i].Value
		n += strLen(es[i].Key) + 1
		switch v.Kind {
		case KindInt, KindFloat:
			n += uvarintLen(v.n)
		case KindStr:
			n += strLen(v.Str())
		case KindVec, KindRect:
			n += uvarintLen(v.n) + 4*int(v.n)
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
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for i := range es {
		v := &es[i].Value
		buf = append(appendStr(buf, es[i].Key), byte(v.Kind))
		switch v.Kind {
		case KindInt, KindFloat:
			buf = binary.AppendUvarint(buf, v.n)
		case KindStr:
			buf = appendStr(buf, v.Str())
		case KindVec, KindRect:
			buf = binary.AppendUvarint(buf, v.n)
			for _, f := range v.Vec() {
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

// UnmarshalPatch parses a patch serialized by Marshal into a committed
// row.
func UnmarshalPatch(buf []byte) (*Patch, error) {
	var d patchDecoder
	return d.decode(buf)
}

// patchDecoder parses stored patches into committed rows. One decoder
// reads a whole collection on load, so its rows share strings: a key the
// schema declares is the schema's own string, and a row whose source
// equals the previous row's reuses that string.
type patchDecoder struct {
	fields  []Field
	source  string
	scratch []Pair // the row being decoded, copied out exactly sized
	buf     []byte
	pos     int
}

func (d *patchDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, errCorrupt
	}
	d.pos += n
	return v, nil
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (d *patchDecoder) bytes() ([]byte, error) {
	l, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if l > uint64(len(d.buf)-d.pos) {
		return nil, errCorrupt
	}
	b := d.buf[d.pos : d.pos+int(l)]
	d.pos += int(l)
	return b, nil
}

// key resolves a stored key to its string: a declared field's name
// costs no allocation.
func (d *patchDecoder) key(b []byte) string {
	for i := range d.fields {
		if d.fields[i].Name == string(b) {
			return d.fields[i].Name
		}
	}
	return string(b)
}

// decode parses buf. Keys must be stored in strictly ascending order,
// as Marshal writes them. A row stored while Marshal wrote the lineage
// attributes carries them: they must equal Ref, and are dropped.
func (d *patchDecoder) decode(buf []byte) (*Patch, error) {
	d.buf, d.pos = buf, 0
	p := &Patch{}
	id, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	p.ID = PatchID(id)
	src, err := d.bytes()
	if err != nil {
		return nil, err
	}
	if string(src) != d.source {
		d.source = string(src)
	}
	p.Ref.Source = d.source
	if p.Ref.Frame, err = d.uvarint(); err != nil {
		return nil, err
	}
	parent, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	p.Ref.Parent = PatchID(parent)
	data, err := d.bytes()
	if err != nil {
		return nil, err
	}
	if len(data) > 0 {
		if p.Data, err = tensor.Unmarshal(data); err != nil {
			return nil, err
		}
	}
	nmeta, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	pairs := d.scratch[:0]
	var prev []byte
	for i := uint64(0); i < nmeta; i++ {
		kb, err := d.bytes()
		if err != nil {
			return nil, err
		}
		if (i > 0 && string(kb) <= string(prev)) || d.pos >= len(buf) {
			return nil, errCorrupt
		}
		prev = kb
		v, err := d.value(ValueKind(buf[d.pos]))
		if err != nil {
			return nil, err
		}
		switch string(kb) {
		case frameKey:
			if v.Kind != KindInt || v.n != p.Ref.Frame {
				return nil, errCorrupt
			}
		case sourceKey:
			if v.Kind != KindStr || v.Str() != p.Ref.Source {
				return nil, errCorrupt
			}
		default:
			pairs = append(pairs, Pair{d.key(kb), v})
		}
	}
	p.pairs = make([]Pair, len(pairs))
	copy(p.pairs, pairs)
	clear(pairs)
	d.scratch = pairs[:0]
	return p, nil
}

// value parses a value of kind k, whose kind byte is at d.pos.
func (d *patchDecoder) value(k ValueKind) (Value, error) {
	d.pos++
	switch k {
	case KindInt, KindFloat:
		u, err := d.uvarint()
		return Value{n: u, Kind: k}, err
	case KindStr:
		b, err := d.bytes()
		return StrV(string(b)), err
	case KindVec, KindRect:
		l, err := d.uvarint()
		if err != nil {
			return Value{}, err
		}
		if l > uint64(len(d.buf)-d.pos)/4 {
			return Value{}, errCorrupt
		}
		vec := make([]float32, l)
		for j := range vec {
			vec[j] = math.Float32frombits(binary.LittleEndian.Uint32(d.buf[d.pos:]))
			d.pos += 4
		}
		return sliceValue(k, vec), nil
	}
	return Value{}, errCorrupt
}

// Clone deep-copies a patch (shared tensors are copied too), in its
// form: a committed row's clone is sealed.
func (p *Patch) Clone() *Patch {
	c := &Patch{ID: p.ID, Ref: p.Ref}
	if p.pairs == nil {
		c.Meta = p.Meta.Clone()
	} else {
		c.pairs = make([]Pair, len(p.pairs))
		for i, e := range p.pairs {
			c.pairs[i] = Pair{e.Key, e.Value.clone()}
		}
	}
	if p.Data != nil {
		c.Data = p.Data.Clone()
	}
	return c
}
