package core

// This file implements the row table: where a collection replica keeps
// its committed rows in memory. A row is not a *Patch here. The table
// holds, per row, its id, its Ref.Frame, a code for its Ref.Source and
// the values of its schema's declared fields as slots, row-major, in
// chunks of chunkRows rows. The rare row with a lineage parent, a pixel
// payload or undeclared entries also has an entry in a sparse side list.
// The serving path reads rows by position; a *Patch is built only where
// an API hands one out (RowTable.View, Snapshot.Row, Get, Materialize
// and Patches), and it points at the table's slots rather than copying
// them.
//
// A table grows only at its end, under its collection's lock. A reader
// holds a header and a row count, and reads only rows below the count:
// the writer writes rows past every published count, and it copies the
// header before any change to it (a new chunk, source or side entry),
// publishing the copy with the commit. No reader ever sees a write.

import (
	"slices"
	"unsafe"

	"repro/internal/tensor"
)

// chunkRows is the rows one chunk of a row table holds.
const chunkRows = 1024

// RowTable holds one collection replica's committed rows in id order. A
// Snapshot reads its first Len rows; a header stays valid for every row
// it held when it was published, however the table grows after.
type RowTable struct {
	codec   *rowCodec
	chunks  []*rowChunk
	sources []string   // Ref.Source by code
	extras  []rowExtra // the rows with a parent, a payload or pairs, by position

	// srcIdx is sources inverted. Only the writer reads it, under its
	// collection's lock.
	srcIdx map[string]uint32
}

// rowChunk is chunkRows rows of a table, by offset.
type rowChunk struct {
	ids    [chunkRows]PatchID
	frames [chunkRows]uint64
	srcs   [chunkRows]uint32 // the source code; extraBit marks a row in extras
	slots  []slot            // the declared values, the codec's fields per row
}

// extraBit marks a row's source code when the row has a side entry.
const extraBit = 1 << 31

// rowExtra is a row's side entry: what rows rarely carry.
type rowExtra struct {
	pos    int
	parent PatchID
	data   *tensor.Tensor
	pairs  []Pair // the undeclared entries, sorted by key
}

func newRowTable(c *rowCodec) *RowTable { return &RowTable{codec: c} }

// TableOf returns a table holding ps, in order, in the layout of a
// schema that declares no field: every entry a pair. ps are left as
// they are: the table shares a committed row's pairs. It is for rows
// held outside a collection; a table does not look up its rows' ids
// unless they ascend.
func TableOf(ps ...*Patch) *RowTable {
	w := tableWriter{t: newRowTable(&schemaFree), owned: true}
	for _, p := range ps {
		_, pairs, _ := schemaFree.split(p, nil, nil) // no declared field to miss
		w.put(p, nil, pairs)
	}
	return w.t
}

// at returns the chunk holding row i and the row's offset in it.
func (t *RowTable) at(i int) (*rowChunk, int) { return t.chunks[i/chunkRows], i % chunkRows }

// ID returns row i's id.
func (t *RowTable) ID(i int) PatchID {
	ck, o := t.at(i)
	return ck.ids[o]
}

// View fills p with row i as a committed row. p shares the row's
// declared values, pairs and payload with the table and copies none of
// them; the caller must not modify them.
func (t *RowTable) View(i int, p *Patch) {
	ck, o := t.at(i)
	code := ck.srcs[o]
	*p = Patch{ID: ck.ids[o], Ref: Ref{Source: t.sources[code&^extraBit], Frame: ck.frames[o]}, codec: t.codec}
	if nf := len(t.codec.fields); nf > 0 {
		p.decl = &ck.slots[o*nf]
	}
	if code&extraBit != 0 {
		e := t.extra(i)
		p.Ref.Parent, p.Data, p.pairs = e.parent, e.data, e.pairs
	}
}

// Row returns row i as a new committed row (see View).
func (t *RowTable) Row(i int) *Patch {
	p := new(Patch)
	t.View(i, p)
	return p
}

// extra returns row i's side entry, which the row must have. It
// searches by index: a comparison function would copy each entry.
func (t *RowTable) extra(i int) *rowExtra {
	lo, hi := 0, len(t.extras)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.extras[m].pos < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return &t.extras[lo]
}

// declared returns row i's value of declared field k.
func (t *RowTable) declared(i, k int) Value {
	ck, o := t.at(i)
	s := ck.slots[o*len(t.codec.fields)+k]
	return Value{p: s.p, n: s.n, Kind: t.codec.fields[k].Kind}
}

// fieldReader reads one field of a table's rows: by position when the
// table's layout declares it, else through a view of the row.
type fieldReader struct {
	t    *RowTable
	name string
	k    int   // the declared position, or -1
	view Patch // the last row read, when k < 0
}

func (t *RowTable) fieldReader(name string) fieldReader {
	return fieldReader{t: t, name: name, k: t.codec.pos(name)}
}

// get returns row i's value of the field.
func (f *fieldReader) get(i int) (Value, bool) {
	if f.k >= 0 {
		return f.t.declared(i, f.k), true
	}
	f.t.View(i, &f.view)
	return f.view.Get(f.name)
}

// vectorRuns calls fn with the rows in [lo, hi) that carry a vector
// under field (see vecOf), in row order, until fn returns false, in
// runs: row j of a run has id ids[j] and the vector vecAt(slots, j,
// stride). A declared vector field is read at a fixed offset in each
// row's slots, a chunk's rows a run, so a caller's loop over a run makes
// no call per row; any other field is read through a view of each row,
// a run of one.
func (t *RowTable) vectorRuns(field string, lo, hi int, fn func(ids []PatchID, slots []slot, stride int) bool) {
	k := -1
	if field != "" {
		k = t.codec.pos(field)
	}
	if k < 0 {
		var id [1]PatchID
		var vec [1]slot
		var p Patch
		for i := lo; i < hi; i++ {
			t.View(i, &p)
			if v, ok := vecOf(&p, field); ok {
				id[0], vec[0] = p.ID, slot{unsafe.Pointer(unsafe.SliceData(v)), uint64(len(v))}
				if !fn(id[:], vec[:], 1) {
					return
				}
			}
		}
		return
	}
	if kind := t.codec.fields[k].Kind; kind != KindVec && kind != KindRect {
		return
	}
	nf := len(t.codec.fields)
	for i := lo; i < hi; {
		ck, o := t.at(i)
		end := min(o+hi-i, chunkRows)
		i += end - o
		if !fn(ck.ids[o:end], ck.slots[o*nf+k:], nf) {
			return
		}
	}
}

// vecAt is the vector held in slots[j*stride] (see vectorRuns).
func vecAt(slots []slot, j, stride int) []float32 {
	s := slots[j*stride]
	return unsafe.Slice((*float32)(s.p), s.n)
}

// search returns the position of id among the first n rows, which
// ascend by id, and whether it is there.
func (t *RowTable) search(n int, id PatchID) (int, bool) {
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.ID(m) < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < n && t.ID(lo) == id
}

// tableWriter appends rows to a table under its collection's lock. It
// copies the table's header before its first change to it, so the
// header readers hold never changes: the commit publishes t.
type tableWriter struct {
	t     *RowTable
	owned bool // t is a copy no reader holds yet
	n     int  // rows t holds
}

// header returns w's header to change, copying it first if readers may
// hold it.
func (w *tableWriter) header() *RowTable {
	if !w.owned {
		cp := *w.t
		w.t, w.owned = &cp, true
	}
	return w.t
}

// put appends a row: p's id and lineage, decl, its declared values in
// the table's layout, and pairs, its other entries but the lineage
// keys, sorted by key. The table keeps pairs' array and the strings and
// vectors the values point at; it copies decl's slots. It returns the
// row's chunk and offset.
func (w *tableWriter) put(p *Patch, decl []slot, pairs []Pair) (*rowChunk, int) {
	i := w.n
	ci, o := i/chunkRows, i%chunkRows
	nf := len(w.t.codec.fields)
	if ci == len(w.t.chunks) {
		h := w.header()
		h.chunks = append(h.chunks, &rowChunk{slots: make([]slot, chunkRows*nf)})
	}
	ck := w.t.chunks[ci]
	code := w.source(p.Ref.Source)
	if p.Ref.Parent != 0 || p.Data != nil || len(pairs) > 0 {
		code |= extraBit
		h := w.header()
		h.extras = append(h.extras, rowExtra{pos: i, parent: p.Ref.Parent, data: p.Data, pairs: pairs})
	}
	ck.ids[o], ck.frames[o], ck.srcs[o] = p.ID, p.Ref.Frame, code
	copy(ck.slots[o*nf:(o+1)*nf], decl)
	w.n++
	return ck, o
}

// source returns s's code, adding s to the table's sources when it is
// new. A row usually has the previous row's source.
func (w *tableWriter) source(s string) uint32 {
	t := w.t
	if w.n > 0 {
		ck, o := t.at(w.n - 1)
		if prev := ck.srcs[o] &^ extraBit; t.sources[prev] == s {
			return prev
		}
	}
	if code, ok := t.srcIdx[s]; ok {
		return code
	}
	h := w.header()
	if h.srcIdx == nil {
		h.srcIdx = make(map[string]uint32)
	}
	code := uint32(len(h.sources))
	h.sources = append(h.sources, s)
	h.srcIdx[s] = code
	return code
}

// commit appends p, a row that validates against the table's schema,
// and when p is sealed in the table's layout re-points it at its row:
// p's declared values are then the table's, and the slots p held them
// in are free. A row in another layout is read by name, into slots and
// pairs of its own.
func (w *tableWriter) commit(p *Patch) {
	c := w.t.codec
	if p.codec == nil || !p.codec.sameLayout(c) {
		decl, pairs, err := c.split(p, make([]slot, 0, len(c.fields)), nil)
		if err != nil {
			panic(err) // the row validated
		}
		w.put(p, decl, slices.Clip(pairs))
		return
	}
	ck, o := w.put(p, p.declared(), p.pairs)
	p.codec, p.Ref.Source = c, w.t.sources[ck.srcs[o]&^extraBit]
	if nf := len(c.fields); nf > 0 {
		p.decl = &ck.slots[o*nf]
	}
}
