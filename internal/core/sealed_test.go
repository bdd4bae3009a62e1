package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// sealedNames are the field names a random schema draws from: short
// names that prefix each other, and the lineage keys, which a schema
// may declare but a row answers from Ref.
var sealedNames = []string{"a", "ab", "b", "label", "m", "score", "z", frameKey, sourceKey, "_g"}

// randomSchema declares up to seven fields of sealedNames, repeats
// included, of every kind: fixed and variable vectors and rects too.
func randomSchema(rng *rand.Rand) []Field {
	fs := make([]Field, rng.Intn(8))
	for i := range fs {
		fs[i] = Field{Name: sealedNames[rng.Intn(len(sealedNames))], Kind: ValueKind(1 + rng.Intn(5))}
		if fs[i].Kind == KindVec && rng.Intn(2) == 0 {
			fs[i].VecDim = 1 + rng.Intn(4)
		}
	}
	return fs
}

// randomValue draws a value of kind k; a vector takes dim elements when
// dim > 0, and otherwise a random length, nil and empty included.
func randomValue(rng *rand.Rand, k ValueKind, dim int) Value {
	floats := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), 0.25, -3}
	switch k {
	case KindInt:
		return IntV(rng.Int63() - rng.Int63())
	case KindFloat:
		if rng.Intn(2) == 0 {
			return FloatV(floats[rng.Intn(len(floats))])
		}
		return FloatV(math.Float64frombits(rng.Uint64()))
	case KindStr:
		return StrV(string(make([]byte, rng.Intn(4))) + "s")
	case KindRect:
		return RectV(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
	}
	n := dim
	if n == 0 {
		n = rng.Intn(4) - 1
	}
	if n < 0 {
		return VecV(nil)
	}
	vec := make([]float32, n)
	for i := range vec {
		vec[i] = float32(floats[rng.Intn(len(floats))])
	}
	return VecV(vec)
}

// randomEntries draws a row's entries for codec c: a fitting value for
// every declared field; undeclared keys that sort before, between and
// after the declared ones; sometimes stale lineage entries; and repeats
// of earlier keys, which sealing drops, at the end.
func randomEntries(rng *rand.Rand, c *rowCodec) []Pair {
	var es []Pair
	for i := range c.fields {
		f := &c.fields[i]
		es = append(es, Pair{f.Name, randomValue(rng, f.Kind, f.VecDim)})
	}
	keys := []string{"!", "~", "_f", "_frame0", "_sourcf", "_t"}
	for i := range c.fields {
		name := c.fields[i].Name
		keys = append(keys, name+"0", name[:len(name)-1], name+"~")
	}
	for _, k := range keys {
		if k != "" && k != frameKey && k != sourceKey && c.pos(k) < 0 && rng.Intn(2) == 0 {
			es = append(es, Pair{k, randomValue(rng, ValueKind(1+rng.Intn(5)), 0)})
		}
	}
	if rng.Intn(2) == 0 {
		es = append(es, Pair{frameKey, IntV(-1)}, Pair{sourceKey, StrV("stale")})
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	for n := rng.Intn(3); n > 0 && len(es) > 0; n-- {
		e := es[rng.Intn(len(es))]
		es = append(es, Pair{e.Key, randomValue(rng, ValueKind(1+rng.Intn(5)), 0)})
	}
	return es
}

// FuzzSealedRowForms: a row sealed in a random schema's layout and the
// same entries sealed without a schema answer every read alike: Get for
// every name (absent names and the lineage keys too), a field reader of
// the layout, Range's order, Marshal, the layout's encoding, Clone,
// Builder and samePatchBytes. Decoding the layout's encoding gives the
// positional form back, and decoding Marshal's the schema-free one.
func FuzzSealedRowForms(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		schema := Schema{Data: Pixels(0, 0), Fields: randomSchema(rng)}
		c := newRowCodec(schema)
		entries := randomEntries(rng, c)
		ref := Ref{Source: []string{"", "cam", "~"}[rng.Intn(3)], Frame: rng.Uint64() >> rng.Intn(64), Parent: PatchID(rng.Intn(3))}
		var data *tensor.Tensor
		if rng.Intn(3) == 0 {
			data = tensor.FromU8([]uint8{1, 2, 3, 4, 5, 6}, 1, 2, 3)
		}
		pos := &Patch{ID: 1, Ref: ref, Data: data}
		newSealer(schema, c, 1).Seal(pos, slices.Clone(entries))
		if pos.codec != c {
			t.Fatalf("entries that fit %+v sealed without a schema: %+v", schema.Fields, entries)
		}
		free := &Patch{ID: 1, Ref: ref, Data: data}
		free.Seal(slices.Clone(entries))

		names := []string{"", "!", "~~", "a0", frameKey, sourceKey, "_frame0", "_sourc"}
		for _, e := range entries {
			names = append(names, e.Key, e.Key+"x")
		}
		for _, f := range schema.Fields {
			names = append(names, f.Name, f.Name[:len(f.Name)-1])
		}
		for _, n := range names {
			want, wok := free.Get(n)
			got, ok := pos.Get(n)
			if ok != wok || !sameValue(got, want) {
				t.Fatalf("Get(%q): positional %+v %v, schema-free %+v %v", n, got, ok, want, wok)
			}
		}
		pr, fr := rangePairs(pos), rangePairs(free)
		if len(pr) != len(fr) {
			t.Fatalf("Range: positional %d entries, schema-free %d", len(pr), len(fr))
		}
		for i := range pr {
			if pr[i].Key != fr[i].Key || !sameValue(pr[i].Value, fr[i].Value) || (i > 0 && pr[i].Key <= pr[i-1].Key) {
				t.Fatalf("Range entry %d: positional %q=%+v, schema-free %q=%+v", i, pr[i].Key, pr[i].Value, fr[i].Key, fr[i].Value)
			}
		}
		marshaled := free.Marshal()
		if got := pos.Marshal(); !bytes.Equal(got, marshaled) {
			t.Fatalf("Marshal: positional %x, schema-free %x", got, marshaled)
		}
		raw, err := c.encode(pos)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.encode(free); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("encode: schema-free %x (%v), positional %x", got, err, raw)
		}
		if !samePatchBytes(pos, free) || !samePatchBytes(free, pos) {
			t.Fatal("samePatchBytes tells the two forms apart")
		}
		for _, p := range []*Patch{pos, free} {
			cp := p.Clone()
			if cp.codec != p.codec || !bytes.Equal(cp.Marshal(), marshaled) {
				t.Fatalf("Clone of the %v row: layout %v, Marshal %x", p == pos, cp.codec == c, cp.Marshal())
			}
			if err := samePatch(cp, free); err != nil {
				t.Fatalf("Clone of the %v row: %v", p == pos, err)
			}
		}
		pb, fb := pos.Builder(), free.Builder()
		if pb == pos || pb.sealed() || len(pb.Meta) != len(fb.Meta) {
			t.Fatalf("Builder: positional %d keys, schema-free %d", len(pb.Meta), len(fb.Meta))
		}
		for k, v := range fb.Meta {
			if got, ok := pb.Meta[k]; !ok || !sameValue(got, v) {
				t.Fatalf("Builder[%q]: positional %+v %v, schema-free %+v", k, got, ok, v)
			}
		}
		d := patchDecoder{codec: c}
		back, err := d.decode(1, raw)
		if err != nil {
			t.Fatalf("%x does not decode: %v", raw, err)
		}
		if back.codec != c {
			t.Fatal("the layout's encoding decodes to another layout")
		}
		if err := samePatch(back, pos); err != nil {
			t.Fatalf("decode(encode): %v", err)
		}
		if again, err := c.encode(back); err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("decode(encode) encodes to %x (%v), want %x", again, err, raw)
		}
		unmarshaled, err := UnmarshalPatch(1, marshaled)
		if err != nil || unmarshaled.codec != &schemaFree {
			t.Fatalf("Marshal's bytes decode to %v, %v", unmarshaled, err)
		}
		if err := samePatch(unmarshaled, free); err != nil {
			t.Fatalf("UnmarshalPatch(Marshal): %v", err)
		}
	})
}
