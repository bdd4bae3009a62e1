package codec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestIntSegRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{},
		{0},
		{42},
		{math.MinInt64, math.MaxInt64, 0, -1, 1},
		{7, 7, 7, 7, 7, 7, 7, 7},  // RLE-friendly
		{100, 101, 102, 103, 104}, // narrow packed
		{-5, -5, -5, 12, 12, 900000, -5},
	}
	long := make([]int64, 1024)
	for i := range long {
		long[i] = int64(i / 7) // slowly varying: packed or RLE wins
	}
	cases = append(cases, long)
	rnd := rand.New(rand.NewSource(1))
	wild := make([]int64, 1024)
	for i := range wild {
		wild[i] = int64(rnd.Uint64()) // full-width: raw layout
	}
	cases = append(cases, wild)
	for ci, in := range cases {
		got, err := DecodeInts(EncodeInts(in))
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if len(in) == 0 {
			if len(got) != 0 {
				t.Fatalf("case %d: want empty, got %v", ci, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("case %d: round trip mismatch:\n in=%v\nout=%v", ci, in, got)
		}
	}
}

func TestIntSegCompresses(t *testing.T) {
	v := make([]int64, 1024)
	for i := range v {
		v[i] = 3 // constant block: one RLE run
	}
	if n := len(EncodeInts(v)); n >= 1024 {
		t.Fatalf("constant int block encoded to %d bytes, want far under raw (8192)", n)
	}
	clustered := make([]int64, 1024)
	for i := range clustered {
		clustered[i] = int64(i % 16)
	}
	if n := len(EncodeInts(clustered)); n >= 1024*2 {
		t.Fatalf("narrow int block encoded to %d bytes, want bit-packed (~512)", n)
	}
}

func TestFloatSegRoundTripBitExact(t *testing.T) {
	in := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000123), math.SmallestNonzeroFloat64}
	got, err := DecodeFloats(EncodeFloats(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("length %d != %d", len(got), len(in))
	}
	for i := range in {
		if math.Float64bits(got[i]) != math.Float64bits(in[i]) {
			t.Fatalf("row %d: bits %x != %x", i, math.Float64bits(got[i]), math.Float64bits(in[i]))
		}
	}
}

func TestCodeSegRoundTrip(t *testing.T) {
	cases := [][]uint32{
		{},
		{0, 0, 0, 1, 1, 2, math.MaxUint32},
		{5},
	}
	seq := make([]uint32, 1024)
	for i := range seq {
		seq[i] = uint32(i % 3)
	}
	cases = append(cases, seq)
	for ci, in := range cases {
		got, err := DecodeCodes(EncodeCodes(in))
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if len(in) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("case %d: round trip mismatch", ci)
		}
	}
}

func TestSegDecodeCorrupt(t *testing.T) {
	blob := EncodeInts([]int64{1, 2, 3, 4})
	if _, err := DecodeInts(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated int blob decoded without error")
	}
	if _, err := DecodeInts(nil); err == nil {
		t.Fatal("nil int blob decoded without error")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 0x7F // unknown layout tag
	if _, err := DecodeInts(bad); err == nil {
		t.Fatal("unknown tag decoded without error")
	}
	if _, err := DecodeFloats([]byte{segRLE, 1, 0}); err == nil {
		t.Fatal("non-raw float tag decoded without error")
	}
	if _, err := DecodeCodes([]byte{segRLE, 2, 1, 0}); err == nil {
		t.Fatal("short code runs decoded without error")
	}
}
