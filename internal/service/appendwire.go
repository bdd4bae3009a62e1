package service

// The JSON reader both request bodies are read with, and the /append
// body decoder built on it. wireReader is the lexer: a body read once
// into a pooled buffer, then member names, strings, numbers, literals
// and skipped values, each checked as encoding/json checks it, under
// encoding/json's nesting limit. appendDecoder and queryDecoder
// (querywire.go) embed it, so /append and /query parse with one set of
// rules.
//
// handleAppend reads a body once into a pooled appendDecoder, which
// parses it in one pass into wire specs: numbers parsed, string values
// copied, meta keys kept unquoted in a pooled arena and every vector
// element in one pooled run. Nothing is typed yet, because
// "collection" may come after "patches". Once the commit path has
// looked the collection up, patches builds the batch against its schema
// through metaValue, the coercion Service.Append's map[string]any specs
// go through too.
//
// The contract is parity with the decode /append ran before: a
// json.Decoder with DisallowUnknownFields into an AppendRequest, then
// specs and metaValue. The decoder accepts exactly the bodies that
// decode accepted and builds the same patches
// (FuzzAppendDecodeMatchesEncodingJSON checks both):
//   - member names select fields byte for byte or under Unicode case
//     folding, and any other member of a request or spec is an error;
//   - a repeated member decodes again into what the earlier one left:
//     strings and numbers are overwritten, "meta" objects merge, a
//     second "patch" merges into the first, and a repeated "patches"
//     array decodes into the earlier elements, which stay past a
//     shorter array's end (as a slice's backing array does) until a
//     null or [] "patches" drops them;
//   - null leaves a string or number field as it was, and clears
//     "meta", "patch" and "patches";
//   - strings unquote with lone surrogates and invalid UTF-8 replaced
//     by U+FFFD; every number inside "meta" must fit a float64, and
//     frame and parent must be uint64 integers;
//   - nesting deeper than encoding/json's limit is an error, and bytes
//     after the top-level value are ignored, as json.Decoder leaves
//     them unread.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/core"
	"repro/internal/warmpool"
)

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// maxPooledBytes bounds each buffer a pooled decoder keeps: a decoder
// that one huge request grew past it is dropped rather than pooled, so
// that request cannot pin its memory.
const maxPooledBytes = 1 << 20

var appendDecoders warmpool.Pool[appendDecoder]

// wireReader is the JSON lexer both request bodies are read with: the
// body, the read position and nesting depth, and the scratch a member
// name or string is unquoted into. Its value readers follow
// encoding/json's rules for the Go type they decode into.
type wireReader struct {
	body  []byte
	pos   int
	depth int
	name  []byte // scratch: the member name or string being read
}

// load reads rd to its end as the body and rewinds to its start.
func (r *wireReader) load(rd io.Reader) error {
	r.pos, r.depth = 0, 0
	var err error
	r.body, err = readAll(r.body[:0], rd)
	return err
}

// appendDecoder holds one /append body and what parsing it found.
type appendDecoder struct {
	wireReader

	text   []byte      // meta keys, unquoted; wireField.key indexes it
	vals   []float32   // every vector element, in body order
	specs  []wireSpec  // every spec "patch" and "patches" decoded into
	fields []wireField // every meta member, in body order
	slots  []int       // the "patches" elements' specs indexes
	order  []int       // scratch: one spec's members, sorted by key
	pairs  []core.Pair // scratch: one spec's metadata, for its Sealer
	nslots int         // the "patches" length; slots past it are kept
	patch  int         // the "patch" spec's index, or -1

	collection string
	lastStr    string // the last string member: a batch's rows share their source
}

// wireSpec is one PatchSpec as decoded so far.
type wireSpec struct {
	source        string
	frame, parent uint64
	last          int // the spec's newest meta member in fields, or -1
}

// wireField is one "meta" member: its key, its token (a vector's
// elements are vals[from:to]) and its spec's previous member.
type wireField struct {
	key      span
	tok      metaTok
	from, to int
	prev     int
}

// span is text[from:to].
type span struct{ from, to int }

// decode reads r to its end and parses it as an append body.
func (d *appendDecoder) decode(rd io.Reader) error {
	if err := d.load(rd); err != nil {
		return err
	}
	return d.parse()
}

// readAll appends r's bytes to b up to EOF.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// release returns d to the pool without the strings its last body left,
// unless a huge request grew one of its buffers past maxPooledBytes.
func (d *appendDecoder) release() {
	clear(d.specs)
	clear(d.fields)
	clear(d.pairs[:cap(d.pairs)])
	d.collection, d.lastStr = "", ""
	if d.poolable() {
		appendDecoders.Put(d)
	}
}

// poolable reports whether every buffer of d is within maxPooledBytes.
func (d *appendDecoder) poolable() bool {
	return max(cap(d.body), cap(d.name), cap(d.text), capBytes(d.vals),
		capBytes(d.specs), capBytes(d.fields), capBytes(d.slots), capBytes(d.order), capBytes(d.pairs)) <= maxPooledBytes
}

// capBytes is the size of s's backing array.
func capBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// count is the number of patches decoded: "patch" when set, then the
// "patches" elements.
func (d *appendDecoder) count() int {
	if d.patch >= 0 {
		return 1 + d.nslots
	}
	return d.nslots
}

// specAt returns the spec of patch i.
func (d *appendDecoder) specAt(i int) *wireSpec {
	if d.patch >= 0 {
		if i == 0 {
			return &d.specs[d.patch]
		}
		i--
	}
	return &d.specs[d.slots[i]]
}

// build seals the decoded batch as committed rows through s, for
// AppendBatch to validate. A row costs its copied strings; the batch's
// rows share one array of Patches, the slot array of s and one float32
// array for every vector.
func (d *appendDecoder) build(s *core.Sealer) ([]*core.Patch, error) {
	schema := s.Schema()
	n := d.count()
	vecs := make([]float32, len(d.vals))
	copy(vecs, d.vals)
	rows := make([]core.Patch, n)
	out := make([]*core.Patch, n)
	for i := range out {
		sp := d.specAt(i)
		p := &rows[i]
		p.Ref = core.Ref{Source: sp.source, Frame: sp.frame, Parent: core.PatchID(sp.parent)}
		// Newest member first, so the stable sort by key puts a repeated
		// key's last value first: the one a decoded map keeps.
		d.order = d.order[:0]
		for fi := sp.last; fi >= 0; fi = d.fields[fi].prev {
			d.order = append(d.order, fi)
		}
		slices.SortStableFunc(d.order, func(a, b int) int { return bytes.Compare(d.key(a), d.key(b)) })
		pairs := d.pairs[:0]
		for j, fi := range d.order {
			key := d.key(fi)
			if j > 0 && bytes.Equal(key, d.key(d.order[j-1])) {
				continue
			}
			fd, name := schemaField(schema, key)
			f := &d.fields[fi]
			tok := f.tok
			if tok.kind == tokVec {
				tok.v = vecs[f.from:f.to:f.to]
			}
			v, err := metaValue(fd, tok)
			if err != nil {
				return nil, fmt.Errorf("service: append patch %d: field %q: %w", i, name, err)
			}
			pairs = append(pairs, core.Pair{Key: name, Value: v})
		}
		d.pairs = pairs
		s.Seal(p, pairs)
		out[i] = p
	}
	return out, nil
}

// key is meta member fi's key, unquoted.
func (d *appendDecoder) key(fi int) []byte {
	k := d.fields[fi].key
	return d.text[k.from:k.to]
}

// schemaField returns the field schema declares under key (nil when
// undeclared) and key as a string: the schema's own string when
// declared, so a declared key costs no copy.
func schemaField(schema core.Schema, key []byte) (*core.Field, string) {
	for i := range schema.Fields {
		if schema.Fields[i].Name == string(key) {
			return &schema.Fields[i], schema.Fields[i].Name
		}
	}
	return nil, string(key)
}

// parse decodes d.body from its start.
func (d *appendDecoder) parse() error {
	d.text, d.vals = d.text[:0], d.vals[:0]
	d.specs, d.fields, d.slots = d.specs[:0], d.fields[:0], d.slots[:0]
	d.nslots, d.patch = 0, -1
	d.ws()
	switch {
	case d.pos == len(d.body):
		return errors.New("empty body")
	case d.body[d.pos] == '{':
		return d.request()
	case d.at("null"):
		// The zero AppendRequest: the commit path rejects it for its
		// missing collection.
		return nil
	}
	return d.errorf("want an append request object")
}

func (d *appendDecoder) request() error {
	more, err := d.open('}')
	for more && err == nil {
		if d.name, err = d.member(d.name[:0]); err != nil {
			return err
		}
		switch {
		case fieldIs(d.name, "collection"):
			err = d.stringValue(&d.collection, &d.lastStr)
		case fieldIs(d.name, "patch"):
			err = d.patchValue()
		case fieldIs(d.name, "patches"):
			err = d.patchesValue()
		default:
			err = fmt.Errorf("unknown field %q", d.name)
		}
		if err == nil {
			more, err = d.more('}')
		}
	}
	return err
}

func (d *appendDecoder) patchValue() error {
	switch d.peek() {
	case '{':
		if d.patch < 0 {
			d.patch = d.newSpec()
		}
		return d.spec(d.patch)
	case 'n':
		d.patch = -1
		return d.literal("null")
	}
	return d.errorf("want a patch object")
}

func (d *appendDecoder) patchesValue() error {
	switch d.peek() {
	case '[':
	case 'n':
		d.slots, d.nslots = d.slots[:0], 0
		return d.literal("null")
	default:
		return d.errorf("want a patches array")
	}
	more, err := d.open(']')
	if !more {
		d.slots, d.nslots = d.slots[:0], 0
		return err
	}
	i := 0
	for ; more && err == nil; i++ {
		if i == len(d.slots) {
			d.slots = append(d.slots, d.newSpec())
		}
		switch d.peek() {
		case '{':
			err = d.spec(d.slots[i])
		case 'n':
			err = d.literal("null") // leaves the element as it was
		default:
			err = d.errorf("want a patch object")
		}
		if err == nil {
			more, err = d.more(']')
		}
	}
	d.nslots = i
	return err
}

// newSpec adds an empty spec and returns its index.
func (d *appendDecoder) newSpec() int {
	d.specs = append(d.specs, wireSpec{last: -1})
	return len(d.specs) - 1
}

// spec decodes a patch object into spec si.
func (d *appendDecoder) spec(si int) error {
	more, err := d.open('}')
	for more && err == nil {
		if d.name, err = d.member(d.name[:0]); err != nil {
			return err
		}
		sp := &d.specs[si]
		switch {
		case fieldIs(d.name, "source"):
			err = d.stringValue(&sp.source, &d.lastStr)
		case fieldIs(d.name, "frame"):
			err = d.uintValue(&sp.frame)
		case fieldIs(d.name, "parent"):
			err = d.uintValue(&sp.parent)
		case fieldIs(d.name, "meta"):
			err = d.meta(si)
		default:
			err = fmt.Errorf("unknown field %q", d.name)
		}
		if err == nil {
			more, err = d.more('}')
		}
	}
	return err
}

// meta decodes a "meta" value into spec si's members.
func (d *appendDecoder) meta(si int) error {
	switch d.peek() {
	case '{':
	case 'n':
		d.specs[si].last = -1
		return d.literal("null")
	default:
		return d.errorf("want a meta object")
	}
	more, err := d.open('}')
	for more && err == nil {
		f := wireField{key: span{from: len(d.text)}, prev: d.specs[si].last}
		if d.text, err = d.member(d.text); err != nil {
			return err
		}
		f.key.to = len(d.text)
		if err = d.metaToken(&f); err != nil {
			return err
		}
		d.fields = append(d.fields, f)
		d.specs[si].last = len(d.fields) - 1
		more, err = d.more('}')
	}
	return err
}

// metaToken reads a meta member's value into f's token.
func (d *appendDecoder) metaToken(f *wireField) error {
	switch c := d.peek(); {
	case c == '"':
		var err error
		if d.name, err = d.str(d.name[:0]); err != nil {
			return err
		}
		f.tok = metaTok{kind: tokStr, s: string(d.name)}
		return nil
	case c == '-' || isDigit(c):
		x, err := d.float()
		f.tok = metaTok{kind: tokNum, f: x}
		return err
	case c == '[':
		return d.vector(f)
	}
	typ, err := d.skip()
	f.tok = metaTok{kind: tokBad, s: typ}
	return err
}

// vector reads an array meta value: its numbers onto d.vals, and the
// first element that is not a number into f's token.
func (d *appendDecoder) vector(f *wireField) error {
	f.tok = metaTok{kind: tokVec}
	f.from = len(d.vals)
	more, err := d.open(']')
	for i := 0; more && err == nil; i++ {
		if c := d.peek(); c == '-' || isDigit(c) {
			var x float64
			if x, err = d.float(); err != nil {
				return err
			}
			d.vals = append(d.vals, float32(x))
		} else {
			var typ string
			if typ, err = d.skip(); err != nil {
				return err
			}
			if f.tok.kind == tokVec {
				f.tok = metaTok{kind: tokBadElem, elem: i, s: typ}
			}
		}
		more, err = d.more(']')
	}
	f.to = len(d.vals)
	return err
}

// skip reads any JSON value, checked as encoding/json checks one it
// decodes into an any, and returns that any's %T.
func (r *wireReader) skip() (string, error) {
	switch c := r.peek(); {
	case c == '"':
		var err error
		r.name, err = r.str(r.name[:0])
		return "string", err
	case c == '-' || isDigit(c):
		_, err := r.float()
		return "float64", err
	case c == '[':
		more, err := r.open(']')
		for more && err == nil {
			if _, err = r.skip(); err == nil {
				more, err = r.more(']')
			}
		}
		return "[]interface {}", err
	case c == '{':
		more, err := r.open('}')
		for more && err == nil {
			if r.name, err = r.member(r.name[:0]); err == nil {
				if _, err = r.skip(); err == nil {
					more, err = r.more('}')
				}
			}
		}
		return "map[string]interface {}", err
	case c == 't':
		return "bool", r.literal("true")
	case c == 'f':
		return "bool", r.literal("false")
	case c == 'n':
		return "<nil>", r.literal("null")
	}
	return "", r.errorf("want a JSON value")
}

// stringValue decodes a string member's value into *dst; null leaves
// it as it was. *last is the string the member last decoded to: an
// equal value reuses it rather than copying the bytes again.
func (r *wireReader) stringValue(dst, last *string) error {
	switch r.peek() {
	case '"':
		var err error
		if r.name, err = r.str(r.name[:0]); err != nil {
			return err
		}
		if string(r.name) != *last {
			*last = string(r.name)
		}
		*dst = *last
		return nil
	case 'n':
		return r.literal("null")
	}
	return r.errorf("want a string")
}

// uintValue decodes an unsigned integer member's value into *dst, as
// encoding/json decodes into a uint64: digits only, at most
// MaxUint64; null leaves it as it was.
func (r *wireReader) uintValue(dst *uint64) error {
	if r.peek() == 'n' {
		return r.literal("null")
	}
	lit, err := r.number()
	if err != nil {
		return err
	}
	var u uint64
	for _, c := range lit {
		if !isDigit(c) || u > (math.MaxUint64-uint64(c-'0'))/10 {
			return r.errorf("number %s is not a uint64", lit)
		}
		u = u*10 + uint64(c-'0')
	}
	*dst = u
	return nil
}

// float reads a number as encoding/json decodes one into an any: a
// float64, and an error past its range.
func (r *wireReader) float() (float64, error) {
	lit, err := r.number()
	if err != nil {
		return 0, err
	}
	x, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, r.errorf("number %s does not fit a float64", lit)
	}
	return x, nil
}

// number reads a JSON number and returns its text.
func (r *wireReader) number() ([]byte, error) {
	start := r.pos
	if r.peek() == '-' {
		r.pos++
	}
	switch c := r.peek(); {
	case c == '0':
		r.pos++
	case '1' <= c && c <= '9':
		r.digits()
	default:
		return nil, r.errorf("want a number")
	}
	if r.peek() == '.' {
		r.pos++
		if !isDigit(r.peek()) {
			return nil, r.errorf("want a digit after the decimal point")
		}
		r.digits()
	}
	if c := r.peek(); c == 'e' || c == 'E' {
		r.pos++
		if c := r.peek(); c == '+' || c == '-' {
			r.pos++
		}
		if !isDigit(r.peek()) {
			return nil, r.errorf("want a digit in the exponent")
		}
		r.digits()
	}
	return r.body[start:r.pos], nil
}

func (r *wireReader) digits() {
	for isDigit(r.peek()) {
		r.pos++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// str reads the quoted string at w.pos and appends it, unquoted, to
// dst: escapes resolved, and a lone surrogate or a byte of invalid
// UTF-8 replaced by U+FFFD.
func (w *wireReader) str(dst []byte) ([]byte, error) {
	b := w.body
	i := w.pos + 1
	for {
		start := i
		for i < len(b) && b[i] >= ' ' && b[i] != '"' && b[i] != '\\' && b[i] < utf8.RuneSelf {
			i++
		}
		dst = append(dst, b[start:i]...)
		w.pos = i
		if i == len(b) {
			return dst, w.errorf("unterminated string")
		}
		switch c := b[i]; {
		case c == '"':
			w.pos = i + 1
			return dst, nil
		case c < ' ':
			return dst, w.errorf("control character in string")
		case c == '\\':
			if i+1 == len(b) {
				return dst, w.errorf("unterminated string")
			}
			i += 2
			switch e := b[i-1]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r, ok := hex4(b[i:])
				if !ok {
					return dst, w.errorf("invalid \\u escape")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A pair decodes to one rune; anything else leaves
					// U+FFFD and the next escape to stand alone.
					r2 := rune(-1)
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						r2, _ = hex4(b[i+2:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						r = pair
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				dst = utf8.AppendRune(dst, r)
			default:
				return dst, w.errorf("invalid escape \\%c", e)
			}
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			} else {
				dst = append(dst, b[i:i+size]...)
			}
			i += size
		}
	}
}

// hex4 parses the four hex digits b starts with.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return -1, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// fieldIs reports whether member name key selects the field named name
// (lower-case ASCII) as encoding/json matches them: byte for byte, or
// equal once ASCII letters are upper-cased and every other rune is
// folded to the smallest rune of its case-folding orbit — so "Source",
// and "ſource" with U+017F, both select source.
func fieldIs(key []byte, name string) bool {
	for i := 0; i < len(name); i++ {
		if len(key) == 0 {
			return false
		}
		r, size := rune(key[0]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(key)
			r = foldRune(r)
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		want := rune(name[i])
		if 'a' <= want && want <= 'z' {
			want -= 'a' - 'A'
		}
		if r != want {
			return false
		}
		key = key[size:]
	}
	return len(key) == 0
}

// foldRune is the smallest rune r case-folds to.
func foldRune(r rune) rune {
	for {
		next := unicode.SimpleFold(r)
		if next <= r {
			return next
		}
		r = next
	}
}

// open consumes the '{' or '[' at r.pos and reports whether a member or
// element follows; an empty object or array is consumed whole.
func (r *wireReader) open(close byte) (bool, error) {
	r.pos++
	if r.depth++; r.depth > maxNestingDepth {
		return false, r.errorf("exceeded max depth")
	}
	r.ws()
	if r.peek() == close {
		r.pos++
		r.depth--
		return false, nil
	}
	return true, nil
}

// member reads a member name, appending it unquoted to dst, and the ':'
// after it.
func (r *wireReader) member(dst []byte) ([]byte, error) {
	if r.peek() != '"' {
		return dst, r.errorf("want a member name")
	}
	dst, err := r.str(dst)
	if err != nil {
		return dst, err
	}
	r.ws()
	if r.peek() != ':' {
		return dst, r.errorf("want ':' after a member name")
	}
	r.pos++
	r.ws()
	return dst, nil
}

// more consumes the ',' or the close after a member or element and
// reports whether another follows.
func (r *wireReader) more(close byte) (bool, error) {
	r.ws()
	switch r.peek() {
	case ',':
		r.pos++
		r.ws()
		return true, nil
	case close:
		r.pos++
		r.depth--
		return false, nil
	}
	return false, r.errorf("want ',' or '%c'", close)
}

// literal consumes the JSON literal word: true, false or null.
func (r *wireReader) literal(word string) error {
	if !r.at(word) {
		return r.errorf("invalid literal")
	}
	r.pos += len(word)
	return nil
}

// at reports whether the body continues with s at r.pos.
func (r *wireReader) at(s string) bool {
	return len(r.body)-r.pos >= len(s) && string(r.body[r.pos:r.pos+len(s)]) == s
}

func (r *wireReader) ws() {
	for r.pos < len(r.body) {
		switch r.body[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek is the byte at r.pos, or 0 past the end of the body.
func (r *wireReader) peek() byte {
	if r.pos < len(r.body) {
		return r.body[r.pos]
	}
	return 0
}

func (r *wireReader) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), r.pos)
}
