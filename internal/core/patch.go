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
// metadata is the Meta map. Sealing (Seal, a Sealer, or Append, which
// seals a builder before it commits it) turns it into a committed row,
// whose Meta is nil. A committed row holds the values of its schema's
// declared fields by position, without their keys or kinds, and every
// other entry as a key-sorted pair. It is immutable. A collection does
// not keep it: it copies the row into its row table (see rowtable.go)
// and points the patch's declared values at the table's. A patch read
// from a collection is built from the table and shares its values. Its
// lineage attributes _source and _frame are not stored with its
// metadata; Get and Range answer them from Ref. Read metadata through
// Get and Range, which serve both forms.
type Patch struct {
	ID   PatchID
	Ref  Ref
	Data *tensor.Tensor
	Meta Metadata // the builder's metadata; nil once sealed

	// codec is the schema layout a committed row holds its metadata in,
	// and nil exactly while the patch is a builder. decl points at the
	// values of the codec's declared fields, in schema order, and pairs
	// holds the other entries, sorted by key, without the lineage keys.
	// A row sealed without a schema has the schemaFree codec: no
	// declared value, every entry a pair.
	codec *rowCodec
	decl  *slot
	pairs []Pair
}

// slot is a committed row's declared value: a Value without its kind,
// which the row's codec fixes by position.
type slot struct {
	p unsafe.Pointer
	n uint64
}

func (v Value) slot() slot { return slot{v.p, v.n} }

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
func (p *Patch) sealed() bool { return p.codec != nil }

// declared returns a committed row's declared values, in schema order.
func (p *Patch) declared() []slot { return unsafe.Slice(p.decl, len(p.codec.fields)) }

// at returns a committed row's value of declared field i.
func (p *Patch) at(i int) Value {
	s := p.declared()[i]
	return Value{p: s.p, n: s.n, Kind: p.codec.fields[i].Kind}
}

// Get returns the metadata value under name.
func (p *Patch) Get(name string) (Value, bool) {
	if p.codec == nil {
		v, ok := p.Meta[name]
		return v, ok
	}
	switch name {
	case frameKey:
		return IntV(int64(p.Ref.Frame)), true
	case sourceKey:
		return StrV(p.Ref.Source), true
	}
	if i := p.codec.pos(name); i >= 0 {
		return p.at(i), true
	}
	if i := findPair(p.pairs, name); i >= 0 {
		return p.pairs[i].Value, true
	}
	return Value{}, false
}

// findPair returns the index of key in ps, which is sorted by key, or -1.
// It searches by index: a comparison function would copy each 40-byte
// pair it is handed.
func findPair(ps []Pair, key string) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ps[m].Key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(ps) && ps[lo].Key == key {
		return lo
	}
	return -1
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

// entries appends the entries Range yields to dst, in its order: for a
// committed row, a merge of its declared values in name order, its
// pairs and its lineage attributes.
func (p *Patch) entries(dst []Pair) []Pair {
	c := p.codec
	if c == nil {
		start := len(dst)
		for k, v := range p.Meta {
			dst = append(dst, Pair{k, v})
		}
		sortPairs(dst[start:])
		return dst
	}
	lineage := [2]Pair{{frameKey, IntV(int64(p.Ref.Frame))}, {sourceKey, StrV(p.Ref.Source)}}
	d, u, l := 0, 0, 0
	for d < len(c.order) || u < len(p.pairs) || l < len(lineage) {
		var e Pair
		switch {
		case d < len(c.order) && (u == len(p.pairs) || c.fields[c.order[d]].Name < p.pairs[u].Key) &&
			(l == len(lineage) || c.fields[c.order[d]].Name < lineage[l].Key):
			i := c.order[d]
			e = Pair{c.fields[i].Name, p.at(i)}
			d++
		case u < len(p.pairs) && (l == len(lineage) || p.pairs[u].Key < lineage[l].Key):
			e = p.pairs[u]
			u++
		default:
			e = lineage[l]
			l++
		}
		dst = append(dst, e)
	}
	return dst
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

// sortEntries sorts entries by key in place, keeps the first of a
// repeated key and drops the lineage keys, and returns what it kept.
// The array past the kept entries is cleared.
func sortEntries(entries []Pair) []Pair {
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
	return entries[:n]
}

// Seal makes p a committed row without a schema, whose metadata is
// entries: sorted by key, the first of a repeated key kept and the
// lineage keys dropped, since Get answers them from Ref. Meta is set to
// nil. entries becomes p's: the caller must not touch its array
// afterwards. A Sealer seals a row in its collection's layout instead.
func (p *Patch) Seal(entries []Pair) {
	p.Meta, p.codec, p.decl, p.pairs = nil, &schemaFree, nil, sortEntries(entries)
}

// Sealer seals rows in the layout of one collection's schema, the form
// the collection's rows take when it loads them: the value of each
// declared field in a slot, without key or kind, and only the other
// entries as pairs. The rows of one Sealer take their slots from one
// array. A Sealer is not safe for concurrent use.
type Sealer struct {
	schema Schema
	codec  *rowCodec
	arr    []slot // the slot array
	slab   []slot // its slots no row has taken yet

	home *Collection // the collection that lent arr, if any (see Release)
}

func newSealer(schema Schema, c *rowCodec, rows int) *Sealer {
	s := &Sealer{schema: schema, codec: c}
	s.reset(rows)
	return s
}

// reset gives s room for rows rows in its slot array, growing it only
// when it is short.
func (s *Sealer) reset(rows int) {
	n := rows * len(s.codec.fields)
	if cap(s.arr) < n {
		s.arr = make([]slot, n)
	}
	s.arr = s.arr[:n]
	s.slab = s.arr
}

// maxKeptSlots is the largest slot array a collection keeps for its
// Sealers.
const maxKeptSlots = 1 << 14

// Release gives s's slot array back to the collection that lent it.
// Call it once AppendBatch of the rows s sealed has returned, or once
// they are dropped: a committed row no longer reads the array (its
// collection points it at its row table), and a row that did not
// commit must not be read afterwards. s is spent.
func (s *Sealer) Release() {
	c := s.home
	if c == nil {
		return
	}
	s.home = nil
	if cap(s.arr) <= maxKeptSlots {
		clear(s.arr[:cap(s.arr)]) // drop the values' strings and vectors
		c.sealer.CompareAndSwap(nil, s)
	}
}

// Schema returns the schema s seals rows of.
func (s *Sealer) Schema() Schema { return s.schema }

// Seal makes p a committed row whose metadata is entries, keyed as
// Patch.Seal keeps them, in s's layout when entries hold every declared
// field with its kind (and a fixed-dim vector with its dimension).
// Otherwise p is sealed without a schema, and the schema's ValidatePatch
// says what it lacks. Seal sorts entries in place, but their array stays
// the caller's: p copies what it keeps.
func (s *Sealer) Seal(p *Patch, entries []Pair) {
	es := sortEntries(entries)
	c := s.codec
	nf := len(c.fields)
	if len(s.slab) < nf {
		s.slab = make([]slot, nf) // past the rows s was sized for
	}
	decl := s.slab[:nf:nf]
	found := 0
	for i := range es {
		if k := c.pos(es[i].Key); k >= 0 {
			if !fits(&c.fields[k], &es[i].Value) {
				break
			}
			decl[k] = es[i].Value.slot()
			found++
		}
	}
	if found != nf {
		clear(decl)
		p.Seal(slices.Clone(es))
		return
	}
	s.slab = s.slab[nf:]
	var pairs []Pair
	if len(es) > nf {
		pairs = make([]Pair, 0, len(es)-nf)
		for i := range es {
			if c.pos(es[i].Key) < 0 {
				pairs = append(pairs, es[i])
			}
		}
	}
	p.Meta, p.codec, p.decl, p.pairs = nil, c, nil, pairs
	if nf > 0 {
		p.decl = &decl[0]
	}
}

// Builder returns p itself while p is a builder, and otherwise a new
// builder with p's id, lineage and payload whose Meta holds a copy of
// every entry p's Range yields: how a transformer adds fields to a
// committed row's data without touching the row.
func (p *Patch) Builder() *Patch {
	if p.codec == nil {
		return p
	}
	b := &Patch{ID: p.ID, Ref: p.Ref, Data: p.Data, Meta: make(Metadata, len(p.codec.fields)+len(p.pairs)+2)}
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
// strings by value; floats as cmp.Compare orders them, a NaN before
// every other float and equal to a NaN, so the order is total, as the
// column path's sort orders are. Vec/rect values compare 0.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		return cmp.Compare(v.Kind, o.Kind)
	}
	switch v.Kind {
	case KindInt:
		return cmp.Compare(v.Int(), o.Int())
	case KindFloat:
		return cmp.Compare(v.Float(), o.Float())
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

// rowMarker is the first byte of a row stored by schema position. A row
// stored in the keyed form, as every row was before, begins with its
// id's uvarint instead, and ids start at 1, so that byte is never 0.
const rowMarker = 0x00

// rowCodec is the layout of the committed rows of one schema, in memory
// and stored. A stored row is
//
//	[rowMarker][source][frame][parent][payload][declared values][n][n pairs]
//
// The declared values come in schema order without key or kind, since
// ValidatePatch guarantees each is present with its declared kind: a
// float as the 8 little-endian bytes of its Float64bits (so -0 and NaN
// keep their bits), a vector whose field fixes VecDim as its elements
// alone, and any other value as a pair writes it. The n pairs are the
// undeclared entries in key order, each a key, a kind byte and a value.
// The id is not stored, since the row log's framing holds it, and
// neither are the lineage attributes, which Ref holds. In memory a row holds
// the declared values in slots of the same order (see Patch).
type rowCodec struct {
	fields []Field // held by position, in schema order: no lineage key, no repeat
	order  []int   // the indices of fields in ascending name order
}

// schemaFree is the codec of a schema that declares no field.
var schemaFree rowCodec

// newRowCodec derives the codec of the rows s validates. A declared
// lineage key is answered from Ref, and a repeated name validates the
// value its first declaration does, so neither takes a position.
func newRowCodec(s Schema) *rowCodec {
	c := &rowCodec{}
	for _, f := range s.Fields {
		if f.Name != frameKey && f.Name != sourceKey && !slices.ContainsFunc(c.fields, func(g Field) bool { return g.Name == f.Name }) {
			c.fields = append(c.fields, f)
		}
	}
	c.order = make([]int, len(c.fields))
	for i := range c.order {
		c.order[i] = i
	}
	slices.SortFunc(c.order, func(a, b int) int { return strings.Compare(c.fields[a].Name, c.fields[b].Name) })
	return c
}

// pos returns the position of the declared field name, or -1: a scan,
// since a schema declares a handful of fields.
func (c *rowCodec) pos(name string) int {
	for i := range c.fields {
		if c.fields[i].Name == name {
			return i
		}
	}
	return -1
}

// sameLayout reports whether c's rows hold their declared values as o's
// do: the same fields, by name, kind and dimension, in the same order.
// The codecs of one schema in two databases differ only by address.
func (c *rowCodec) sameLayout(o *rowCodec) bool {
	if c == o {
		return true
	}
	if len(c.fields) != len(o.fields) {
		return false
	}
	for i := range c.fields {
		f, g := &c.fields[i], &o.fields[i]
		if f.Name != g.Name || f.Kind != g.Kind || f.VecDim != g.VecDim {
			return false
		}
	}
	return true
}

// fixedDim reports whether f's vectors are stored without their length.
func fixedDim(f *Field) bool { return f.Kind == KindVec && f.VecDim > 0 }

// fits reports whether v has f's kind and, for a fixed-dim vector, its
// dimension: what a declared value must satisfy to be held by position.
func fits(f *Field, v *Value) bool {
	return v.Kind == f.Kind && (!fixedDim(f) || v.n == uint64(f.VecDim))
}

// Marshal serializes p as a collection whose schema declares no field
// stores it: every entry but the lineage attributes as a keyed pair.
func (p *Patch) Marshal() []byte {
	buf, _ := schemaFree.encode(p)
	return buf
}

// encode serializes p, builder or committed row, in c's stored form,
// into one allocation (see appendEncoded).
func (c *rowCodec) encode(p *Patch) ([]byte, error) {
	return c.appendEncoded(nil, p)
}

// appendEncoded appends p's stored form to buf. It sizes the encoding
// first and grows buf at most once, to that size exactly when buf is
// nil. A declared field that p lacks, or holds with another kind or
// dimension, is an error, and buf is returned as it was: AppendBatch
// validates a row before it encodes it.
func (c *rowCodec) appendEncoded(buf []byte, p *Patch) ([]byte, error) {
	var declArr [16]slot
	var restArr [16]Pair
	decl, rest, err := c.split(p, declArr[:0], restArr[:0])
	if err != nil {
		return buf, err
	}
	n := 1 + strLen(p.Ref.Source) + uvarintLen(p.Ref.Frame) + uvarintLen(uint64(p.Ref.Parent))
	dataLen := 0
	if p.Data != nil {
		dataLen = p.Data.MarshalSize()
	}
	n += uvarintLen(uint64(dataLen)) + dataLen
	for i := range c.fields {
		n += declaredLen(&c.fields[i], decl[i])
	}
	n += uvarintLen(uint64(len(rest)))
	for i := range rest {
		n += strLen(rest[i].Key) + 1 + valueLen(&rest[i].Value)
	}

	if buf == nil {
		buf = make([]byte, 0, n) // exact-sized: Marshal's bytes are kept
	} else {
		buf = slices.Grow(buf, n)
	}
	buf = append(buf, rowMarker)
	buf = appendStr(buf, p.Ref.Source)
	buf = binary.AppendUvarint(buf, p.Ref.Frame)
	buf = binary.AppendUvarint(buf, uint64(p.Ref.Parent))
	buf = binary.AppendUvarint(buf, uint64(dataLen))
	if p.Data != nil {
		buf = p.Data.AppendMarshal(buf)
	}
	for i := range c.fields {
		buf = appendDeclared(buf, &c.fields[i], decl[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(rest)))
	for i := range rest {
		v := &rest[i].Value
		buf = appendValue(append(appendStr(buf, rest[i].Key), byte(v.Kind)), v)
	}
	return buf, nil
}

// split returns p's metadata in c's layout: the values of c's declared
// fields in schema order, and every other entry but the lineage keys in
// key order. A committed row of c holds exactly these. Any other patch
// is read by name, appending to decl and rest: a declared field it
// lacks, or holds with another kind or dimension, is an error.
func (c *rowCodec) split(p *Patch, decl []slot, rest []Pair) ([]slot, []Pair, error) {
	if p.codec != nil && p.codec.sameLayout(c) {
		return p.declared(), p.pairs, nil
	}
	for i := range c.fields {
		f := &c.fields[i]
		v, ok := p.Get(f.Name)
		switch {
		case !ok:
			return nil, nil, fmt.Errorf("core: patch missing declared field %q", f.Name)
		case v.Kind != f.Kind:
			return nil, nil, fmt.Errorf("core: field %q has kind %v, schema declares %v", f.Name, v.Kind, f.Kind)
		case !fits(f, &v):
			return nil, nil, fmt.Errorf("core: field %q vector dim %d, schema declares %d", f.Name, v.n, f.VecDim)
		}
		decl = append(decl, v.slot())
	}
	rest = slices.DeleteFunc(p.entries(rest), func(e Pair) bool {
		return e.Key == frameKey || e.Key == sourceKey || c.pos(e.Key) >= 0
	})
	return decl, rest, nil
}

// valueLen is the length of v's encoding in a pair, after its kind byte.
func valueLen(v *Value) int {
	switch v.Kind {
	case KindInt, KindFloat:
		return uvarintLen(v.n)
	case KindStr:
		return strLen(v.Str())
	case KindVec, KindRect:
		return uvarintLen(v.n) + 4*int(v.n)
	}
	return 0
}

// appendValue appends v's encoding in a pair, after its kind byte.
func appendValue(buf []byte, v *Value) []byte {
	switch v.Kind {
	case KindInt, KindFloat:
		return binary.AppendUvarint(buf, v.n)
	case KindStr:
		return appendStr(buf, v.Str())
	case KindVec, KindRect:
		return appendFloats(binary.AppendUvarint(buf, v.n), v.Vec())
	}
	return buf
}

// declaredLen is the length of s's encoding as field f's declared value.
func declaredLen(f *Field, s slot) int {
	switch {
	case f.Kind == KindFloat:
		return 8
	case fixedDim(f):
		return 4 * f.VecDim
	}
	v := Value{p: s.p, n: s.n, Kind: f.Kind}
	return valueLen(&v)
}

// appendDeclared appends s's encoding as field f's declared value.
func appendDeclared(buf []byte, f *Field, s slot) []byte {
	v := Value{p: s.p, n: s.n, Kind: f.Kind}
	switch {
	case f.Kind == KindFloat:
		return binary.LittleEndian.AppendUint64(buf, v.n)
	case fixedDim(f):
		return appendFloats(buf, v.Vec())
	}
	return appendValue(buf, &v)
}

func appendFloats(buf []byte, vec []float32) []byte {
	for _, f := range vec {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
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

// UnmarshalPatch parses the bytes Marshal wrote for the row with the
// given id into a committed row.
func UnmarshalPatch(id PatchID, buf []byte) (*Patch, error) {
	d := patchDecoder{codec: &schemaFree}
	return d.decode(id, buf)
}

// patchDecoder parses the stored rows of one codec into committed rows
// of that codec. One decoder reads a whole collection on load, so its
// rows share strings: a declared key is the schema's own string, and a
// row whose source equals the previous row's reuses that string.
//
// It reads two forms: the positional one rowCodec writes, and the keyed
// one rows were stored in before, which begins with the id's uvarint and
// holds every entry as a pair. A keyed row stored while Marshal still
// wrote the lineage attributes carries them among its pairs: they must
// equal Ref, and are dropped. A keyed row's id must be its key's, and in
// either form every declared field must be present with its kind and
// dimension, as ValidatePatch promised when the row was appended.
type patchDecoder struct {
	codec   *rowCodec
	source  string
	scratch []Pair // the row's pairs, copied out exactly sized
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

// key resolves a stored key to its string and declared position (-1 for
// an undeclared key): a declared field's name costs no allocation.
func (d *patchDecoder) key(b []byte) (string, int) {
	fs := d.codec.fields
	for i := range fs {
		if fs[i].Name == string(b) {
			return fs[i].Name, i
		}
	}
	return string(b), -1
}

// decode parses buf, the stored row with the given id, into a new
// committed row with its own slots (see read).
func (d *patchDecoder) decode(id PatchID, buf []byte) (*Patch, error) {
	p := new(Patch)
	if err := d.read(id, buf, p, make([]slot, len(d.codec.fields))); err != nil {
		return nil, err
	}
	return p, nil
}

// read parses buf, the stored row with the given id, into p, a
// committed row whose declared values it writes to decl, one slot per
// declared field. Pair keys must be stored in strictly ascending order,
// as encode writes them.
func (d *patchDecoder) read(id PatchID, buf []byte, p *Patch, decl []slot) error {
	d.buf, d.pos = buf, 0
	keyed := len(buf) == 0 || buf[0] != rowMarker
	if keyed {
		stored, err := d.uvarint()
		if err != nil {
			return err
		}
		if stored != uint64(id) {
			return errCorrupt
		}
	} else {
		d.pos++
	}
	*p = Patch{ID: id}
	src, err := d.bytes()
	if err != nil {
		return err
	}
	if string(src) != d.source {
		d.source = string(src)
	}
	p.Ref.Source = d.source
	if p.Ref.Frame, err = d.uvarint(); err != nil {
		return err
	}
	parent, err := d.uvarint()
	if err != nil {
		return err
	}
	p.Ref.Parent = PatchID(parent)
	data, err := d.bytes()
	if err != nil {
		return err
	}
	if len(data) > 0 {
		if p.Data, err = tensor.Unmarshal(data); err != nil {
			return err
		}
	}
	c := d.codec
	nf := len(c.fields)
	if !keyed {
		for i := range c.fields {
			v, err := d.declared(&c.fields[i])
			if err != nil {
				return err
			}
			decl[i] = v.slot()
		}
	}
	nmeta, err := d.uvarint()
	if err != nil {
		return err
	}
	pairs := d.scratch[:0]
	found := 0
	var prev []byte
	for i := uint64(0); i < nmeta; i++ {
		kb, err := d.bytes()
		if err != nil {
			return err
		}
		if (i > 0 && string(kb) <= string(prev)) || d.pos >= len(buf) {
			return errCorrupt
		}
		prev = kb
		k := ValueKind(buf[d.pos])
		d.pos++
		v, err := d.value(k)
		if err != nil {
			return err
		}
		switch string(kb) {
		case frameKey:
			if v.Kind != KindInt || v.n != p.Ref.Frame {
				return errCorrupt
			}
		case sourceKey:
			if v.Kind != KindStr || v.Str() != p.Ref.Source {
				return errCorrupt
			}
		default:
			switch key, pos := d.key(kb); {
			case pos < 0:
				pairs = append(pairs, Pair{key, v})
			case !keyed || !fits(&c.fields[pos], &v):
				return errCorrupt // a declared value stored twice, or breaking its schema
			default:
				decl[pos] = v.slot()
				found++
			}
		}
	}
	if keyed && found != nf {
		return errCorrupt
	}
	p.codec = c
	if nf > 0 {
		p.decl = &decl[0]
	}
	if len(pairs) > 0 {
		p.pairs = make([]Pair, len(pairs))
		copy(p.pairs, pairs)
	}
	clear(pairs)
	d.scratch = pairs[:0]
	return nil
}

// declared parses field f's declared value.
func (d *patchDecoder) declared(f *Field) (Value, error) {
	switch {
	case f.Kind == KindFloat:
		if len(d.buf)-d.pos < 8 {
			return Value{}, errCorrupt
		}
		u := binary.LittleEndian.Uint64(d.buf[d.pos:])
		d.pos += 8
		return Value{n: u, Kind: KindFloat}, nil
	case fixedDim(f):
		return d.floats(KindVec, uint64(f.VecDim))
	}
	return d.value(f.Kind)
}

// value parses a pair's value of kind k.
func (d *patchDecoder) value(k ValueKind) (Value, error) {
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
		return d.floats(k, l)
	}
	return Value{}, errCorrupt
}

// floats parses l float32s into a value of kind k.
func (d *patchDecoder) floats(k ValueKind, l uint64) (Value, error) {
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

// Clone deep-copies a patch (shared tensors are copied too), in its
// form: a committed row's clone is sealed in the same layout.
func (p *Patch) Clone() *Patch {
	c := &Patch{ID: p.ID, Ref: p.Ref, codec: p.codec}
	if p.codec == nil {
		c.Meta = p.Meta.Clone()
	} else {
		if nf := len(p.codec.fields); nf > 0 {
			decl := make([]slot, nf)
			for i := range decl {
				decl[i] = p.at(i).clone().slot()
			}
			c.decl = &decl[0]
		}
		if len(p.pairs) > 0 {
			c.pairs = make([]Pair, len(p.pairs))
			for i, e := range p.pairs {
				c.pairs[i] = Pair{e.Key, e.Value.clone()}
			}
		}
	}
	if p.Data != nil {
		c.Data = p.Data.Clone()
	}
	return c
}
