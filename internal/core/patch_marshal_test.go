package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// refMarshal writes the keyed form every row was stored in before rows
// were stored by schema position, the plain way: appends through
// closures, the id first, the Meta map's keys sorted, each value after
// its key and kind, the payload marshaled separately. Stores written
// then still load, so the decoder must read these bytes.
func refMarshal(p *Patch) []byte {
	var buf []byte
	putU := func(v uint64) { buf = binary.AppendUvarint(buf, v) }
	putU(uint64(p.ID))
	return append(buf, refTail(p, slices.Sorted(maps.Keys(p.Meta)))...)
}

// refEncode writes the positional form rowCodec writes for a row of
// fields, the plain way: the marker, each declared value looked up in
// Meta, then the undeclared keys sorted, as refMarshal writes them.
func refEncode(fields []Field, p *Patch) []byte {
	buf := []byte{0}
	head := refTail(p, nil)
	buf = append(buf, head[:len(head)-1]...) // up to the pair count
	declared := map[string]bool{"_frame": true, "_source": true}
	for _, f := range fields {
		declared[f.Name] = true
		v := p.Meta[f.Name]
		switch {
		case f.Kind == KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
		case f.Kind == KindVec && f.VecDim > 0:
			for _, x := range v.Vec() {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
			}
		default:
			buf = append(buf, refValue(v)...)
		}
	}
	var rest []string
	for _, k := range slices.Sorted(maps.Keys(p.Meta)) {
		if !declared[k] {
			rest = append(rest, k)
		}
	}
	tail := refTail(p, rest)
	return append(buf, tail[len(head)-1:]...)
}

// refTail writes what follows the id in the keyed form: the lineage, the
// payload, and the pairs of keys, in their order.
func refTail(p *Patch, keys []string) []byte {
	var buf []byte
	putU := func(v uint64) { buf = binary.AppendUvarint(buf, v) }
	putStr := func(s string) {
		putU(uint64(len(s)))
		buf = append(buf, s...)
	}
	putStr(p.Ref.Source)
	putU(p.Ref.Frame)
	putU(uint64(p.Ref.Parent))
	if p.Data != nil {
		d := p.Data.Marshal()
		putU(uint64(len(d)))
		buf = append(buf, d...)
	} else {
		putU(0)
	}
	putU(uint64(len(keys)))
	for _, k := range keys {
		v := p.Meta[k]
		putStr(k)
		buf = append(buf, byte(v.Kind))
		buf = append(buf, refValue(v)...)
	}
	return buf
}

// refValue writes a value as a pair does, after its kind byte.
func refValue(v Value) []byte {
	var buf []byte
	putU := func(v uint64) { buf = binary.AppendUvarint(buf, v) }
	switch v.Kind {
	case KindInt:
		putU(uint64(v.Int()))
	case KindFloat:
		putU(math.Float64bits(v.Float()))
	case KindStr:
		putU(uint64(len(v.Str())))
		buf = append(buf, v.Str()...)
	case KindVec, KindRect:
		putU(uint64(len(v.Vec())))
		for _, f := range v.Vec() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
		}
	}
	return buf
}

// randomPatch draws a patch with every value kind, lengths crossing the
// uvarint byte boundaries, and sometimes a payload or more metadata
// fields than Marshal sorts on the stack.
func randomPatch(rng *rand.Rand) *Patch {
	u := func() uint64 { return rng.Uint64() >> uint(rng.Intn(64)) }
	str := func() string {
		b := make([]byte, rng.Intn(3)*rng.Intn(100))
		rng.Read(b)
		return string(b)
	}
	p := &Patch{ID: PatchID(u()), Ref: Ref{Source: str(), Frame: u(), Parent: PatchID(u())}}
	switch rng.Intn(3) {
	case 1:
		p.Data = tensor.FromU8(make([]uint8, 12), 2, 2, 3)
	case 2:
		p.Data = tensor.FromF32([]float32{1, -2, float32(math.Inf(1))}, 3)
	}
	n := rng.Intn(24)
	if n > 0 {
		p.Meta = make(Metadata, n)
	}
	for i := 0; i < n; i++ {
		var v Value
		switch rng.Intn(5) {
		case 0:
			v = IntV(int64(u()))
		case 1:
			v = FloatV(math.Float64frombits(rng.Uint64()))
		case 2:
			v = StrV(str())
		case 3:
			vec := make([]float32, rng.Intn(40))
			for j := range vec {
				vec[j] = math.Float32frombits(rng.Uint32())
			}
			v = VecV(vec)
		case 4:
			v = RectV(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		}
		p.Meta[str()] = v
	}
	return p
}

// TestPatchMarshalMatchesReference: a builder, with or without lineage
// keys in its Meta, and its sealed form all marshal to the keyed form's
// bytes for the builder without them, with the marker byte in place of
// the id. The keyed form, with or without Ref's lineage stamped among
// the pairs, decodes to a row that marshals to those bytes, unless its
// id is not the key's or a stored lineage pair disagrees with Ref.
func TestPatchMarshalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := randomPatch(rng)
		p.ID = max(p.ID, 1)
		keyed := refMarshal(p)
		want := append([]byte{rowMarker}, keyed[uvarintLen(uint64(p.ID)):]...)
		stamped := p.Clone()
		if stamped.Meta == nil {
			stamped.Meta = Metadata{}
		}
		stamped.Meta["_source"] = StrV(p.Ref.Source)
		stamped.Meta["_frame"] = IntV(int64(p.Ref.Frame))
		sealed := p.Clone()
		sealed.Seal(metaPairs(sealed.Meta))
		for _, q := range []*Patch{p, stamped, sealed} {
			if got := q.Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("patch %d (sealed %v, %d keys): Marshal wrote %x, reference %x", i, q.sealed(), len(q.Meta), got, want)
			}
		}
		for _, old := range [][]byte{keyed, refMarshal(stamped)} {
			row, err := UnmarshalPatch(p.ID, old)
			if err != nil {
				t.Fatalf("patch %d: the keyed form does not decode: %v", i, err)
			}
			if err := samePatch(row, sealed); err != nil {
				t.Fatalf("patch %d: the keyed form decodes to another row: %v", i, err)
			}
			if got := row.Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("patch %d: the keyed form re-marshals to %x, want %x", i, got, want)
			}
		}
		if _, err := UnmarshalPatch(p.ID+1, keyed); !errors.Is(err, errCorrupt) {
			t.Fatalf("patch %d: a keyed row under another id decodes with error %v, want errCorrupt", i, err)
		}
		// A stored lineage pair that disagrees with Ref is a corrupt row.
		stale := stamped.Clone()
		if i%2 == 0 {
			stale.Meta["_frame"] = IntV(int64(p.Ref.Frame) + 1)
		} else {
			stale.Meta["_source"] = StrV(p.Ref.Source + "x")
		}
		if _, err := UnmarshalPatch(p.ID, refMarshal(stale)); !errors.Is(err, errCorrupt) {
			t.Fatalf("patch %d: a stale lineage pair decodes with error %v, want errCorrupt", i, err)
		}
	}
}

// randomFields declares a random subset of p's keys, in random order,
// with their kinds; a vector field sometimes fixes its dimension.
func randomFields(rng *rand.Rand, p *Patch) []Field {
	var fs []Field
	for _, k := range slices.Sorted(maps.Keys(p.Meta)) {
		if rng.Intn(2) == 0 {
			continue
		}
		v := p.Meta[k]
		f := Field{Name: k, Kind: v.Kind}
		if v.Kind == KindVec && len(v.Vec()) > 0 && rng.Intn(2) == 0 {
			f.VecDim = len(v.Vec())
		}
		fs = append(fs, f)
	}
	rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return fs
}

// TestRowCodecMatchesReference: under a schema declaring some of a
// patch's keys, builder and sealed form encode to refEncode's bytes,
// which decode to the sealed row. The keyed form of the same row
// decodes to it too and re-encodes to the same bytes.
func TestRowCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		p := randomPatch(rng)
		p.ID = max(p.ID, 1)
		fields := randomFields(rng, p)
		c := newRowCodec(Schema{Fields: fields})
		want := refEncode(fields, p)
		sealed := p.Clone()
		sealed.Seal(metaPairs(sealed.Meta))
		for _, q := range []*Patch{p, sealed} {
			got, err := c.encode(q)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("patch %d (sealed %v, %d fields): encode wrote %x, %v, reference %x", i, q.sealed(), len(fields), got, err, want)
			}
		}
		d := patchDecoder{codec: c}
		for _, stored := range [][]byte{want, refMarshal(p)} {
			row, err := d.decode(p.ID, stored)
			if err != nil {
				t.Fatalf("patch %d: %x does not decode: %v", i, stored, err)
			}
			if err := samePatch(row, sealed); err != nil {
				t.Fatalf("patch %d: %x decodes to another row: %v", i, stored, err)
			}
			if got, err := c.encode(row); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("patch %d: the decoded row encodes to %x, %v, want %x", i, got, err, want)
			}
		}
	}
}

// TestStoredRowBreakingSchemaIsCorrupt: a stored row in either form that
// breaks its collection's schema is a corrupt row, not a row that loads
// and breaks ValidatePatch's promise: a keyed row whose id is not its
// key's, or that lacks a declared field, holds one with another kind or
// another fixed dimension; and a positional row that also stores a
// declared field among its pairs. Encoding such a row is an error.
func TestStoredRowBreakingSchemaIsCorrupt(t *testing.T) {
	fields := []Field{
		{Name: "score", Kind: KindFloat},
		{Name: "label", Kind: KindStr},
		{Name: "emb", Kind: KindVec, VecDim: 3},
		{Name: "rank", Kind: KindInt},
	}
	c := newRowCodec(Schema{Fields: fields})
	good := &Patch{ID: 7, Ref: Ref{Source: "cam", Frame: 3}, Meta: Metadata{
		"score": FloatV(0.5),
		"label": StrV("car"),
		"emb":   VecV([]float32{1, 2, 3}),
		"rank":  IntV(-4),
		"note":  StrV("undeclared"),
	}}
	d := patchDecoder{codec: c}
	if _, err := d.decode(7, refMarshal(good)); err != nil {
		t.Fatalf("a keyed row that keeps the schema: %v", err)
	}
	if _, err := d.decode(8, refMarshal(good)); !errors.Is(err, errCorrupt) {
		t.Fatalf("a keyed row under another id decodes with error %v, want errCorrupt", err)
	}
	breaks := map[string]func(m Metadata){
		"lacks score":      func(m Metadata) { delete(m, "score") },
		"lacks rank":       func(m Metadata) { delete(m, "rank") },
		"int score":        func(m Metadata) { m["score"] = IntV(1) },
		"float label":      func(m Metadata) { m["label"] = FloatV(1) },
		"rect emb":         func(m Metadata) { m["emb"] = RectV(1, 2, 3, 4) },
		"2-d emb":          func(m Metadata) { m["emb"] = VecV([]float32{1, 2}) },
		"4-d emb":          func(m Metadata) { m["emb"] = VecV([]float32{1, 2, 3, 4}) },
		"string rank":      func(m Metadata) { m["rank"] = StrV("1") },
		"lacks every key":  func(m Metadata) { clear(m) },
		"lacks label only": func(m Metadata) { delete(m, "label") },
	}
	for name, brk := range breaks {
		bad := good.Clone()
		brk(bad.Meta)
		if _, err := d.decode(bad.ID, refMarshal(bad)); !errors.Is(err, errCorrupt) {
			t.Errorf("a keyed row that %s decodes with error %v, want errCorrupt", name, err)
		}
		if raw, err := c.encode(bad); err == nil {
			t.Errorf("a row that %s encodes to %x", name, raw)
		}
	}
	// A positional row whose pairs repeat a declared key: its declared
	// values, then "label" and "note" as pairs.
	raw, err := c.encode(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.decode(good.ID, raw); err != nil {
		t.Fatalf("a positional row that keeps the schema: %v", err)
	}
	headLen := len(refTail(good, nil)) - 1 // up to the pair count
	pairsAt := len(raw) - (len(refTail(good, []string{"note"})) - headLen)
	dup := append(raw[:pairsAt:pairsAt], refTail(good, []string{"label", "note"})[headLen:]...)
	if _, err := d.decode(good.ID, dup); !errors.Is(err, errCorrupt) {
		t.Fatalf("a positional row storing a declared key as a pair decodes with error %v, want errCorrupt", err)
	}
}

// TestPatchMarshalAllocatesOnce: the encoding is sized before it is
// written, so encoding a patch with a payload and a few metadata fields
// of every kind, builder or sealed (without a schema or in the layout
// of one), schema-free or under a schema that declares a field of every
// kind, allocates exactly its output.
func TestPatchMarshalAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p := &Patch{
		ID:   300,
		Ref:  Ref{Source: "cam0", Frame: 1 << 40, Parent: 9},
		Data: tensor.FromU8(make([]uint8, 48), 4, 4, 3),
		Meta: Metadata{
			"label":   StrV("pedestrian"),
			"score":   FloatV(0.83),
			"rank":    IntV(-5),
			"emb":     VecV(make([]float32, 32)),
			"hist":    VecV(make([]float32, 5)),
			"bbox":    RectV(1, 2, 3, 4),
			"note":    StrV("undeclared"),
			"_source": StrV("cam0"),
			"_frame":  IntV(1 << 40),
		},
	}
	sealed := p.Clone()
	sealed.Seal(metaPairs(sealed.Meta))
	declared := newRowCodec(Schema{Data: Pixels(4, 4), Fields: []Field{
		{Name: "score", Kind: KindFloat},
		{Name: "label", Kind: KindStr},
		{Name: "rank", Kind: KindInt},
		{Name: "emb", Kind: KindVec, VecDim: 32},
		{Name: "hist", Kind: KindVec},
		{Name: "bbox", Kind: KindRect},
	}})
	laid := p.Clone() // sealed in declared's layout
	newSealer(Schema{}, declared, 1).Seal(laid, metaPairs(laid.Meta))
	if laid.codec != declared {
		t.Fatal("the patch does not fit its schema")
	}
	for _, c := range []*rowCodec{&schemaFree, declared} {
		for _, q := range []*Patch{p, sealed, laid} {
			var out []byte
			if allocs := testing.AllocsPerRun(100, func() { out, _ = c.encode(q) }); allocs != 1 {
				t.Fatalf("encode (%d declared, sealed %v): %.0f allocations, want 1", len(c.fields), q.sealed(), allocs)
			}
			if len(out) != cap(out) {
				t.Fatalf("encode (%d declared, sealed %v) sized %d bytes, wrote %d", len(c.fields), q.sealed(), cap(out), len(out))
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = sealed.Marshal() }); allocs != 1 {
		t.Fatalf("Marshal: %.0f allocations, want 1", allocs)
	}
}
