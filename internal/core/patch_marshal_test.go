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

// refMarshal is Patch.Marshal of a builder as it was before it sized
// its output and before committed rows kept their metadata as pairs:
// appends through closures, the Meta map's keys sorted, the payload
// marshaled separately. Marshal must write the same bytes.
func refMarshal(p *Patch) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putStr := func(s string) {
		putU(uint64(len(s)))
		buf = append(buf, s...)
	}
	putU(uint64(p.ID))
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
	putU(uint64(len(p.Meta)))
	for _, k := range slices.Sorted(maps.Keys(p.Meta)) {
		v := p.Meta[k]
		putStr(k)
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case KindInt:
			putU(uint64(v.Int()))
		case KindFloat:
			putU(math.Float64bits(v.Float()))
		case KindStr:
			putStr(v.Str())
		case KindVec, KindRect:
			putU(uint64(len(v.Vec())))
			for _, f := range v.Vec() {
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
				buf = append(buf, b[:]...)
			}
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
// keys in its Meta, and its sealed form all marshal to the reference's
// bytes for the builder without them. The reference's bytes for the
// builder with Ref's lineage stamped in are the format rows were stored
// in before Marshal left the lineage out: they decode to a row that
// re-marshals to the new bytes, unless a stored lineage pair disagrees
// with Ref.
func TestPatchMarshalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := randomPatch(rng)
		want := refMarshal(p)
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
		old, err := UnmarshalPatch(refMarshal(stamped))
		if err != nil {
			t.Fatalf("patch %d: the lineage-pairs format does not decode: %v", i, err)
		}
		if got := old.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("patch %d: the lineage-pairs format re-marshals to %x, want %x", i, got, want)
		}
		// A stored lineage pair that disagrees with Ref is a corrupt row.
		stale := stamped.Clone()
		if i%2 == 0 {
			stale.Meta["_frame"] = IntV(int64(p.Ref.Frame) + 1)
		} else {
			stale.Meta["_source"] = StrV(p.Ref.Source + "x")
		}
		if _, err := UnmarshalPatch(refMarshal(stale)); !errors.Is(err, errCorrupt) {
			t.Fatalf("patch %d: a stale lineage pair decodes with error %v, want errCorrupt", i, err)
		}
	}
}

// TestPatchMarshalAllocatesOnce: the encoding is sized before it is
// written, so marshaling a patch with a payload and a few metadata
// fields of every kind, builder or sealed, allocates exactly its output.
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
			"bbox":    RectV(1, 2, 3, 4),
			"_source": StrV("cam0"),
			"_frame":  IntV(1 << 40),
		},
	}
	sealed := p.Clone()
	sealed.Seal(metaPairs(sealed.Meta))
	for _, q := range []*Patch{p, sealed} {
		var out []byte
		if allocs := testing.AllocsPerRun(100, func() { out = q.Marshal() }); allocs != 1 {
			t.Fatalf("Marshal (sealed %v): %.0f allocations, want 1", q.sealed(), allocs)
		}
		if len(out) != cap(out) {
			t.Fatalf("Marshal (sealed %v) sized %d bytes, wrote %d", q.sealed(), cap(out), len(out))
		}
	}
}
