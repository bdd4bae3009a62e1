package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout: a value is three words and a pair five, which is what
// a resident row's metadata costs per entry.
func TestValueLayout(t *testing.T) {
	if s := unsafe.Sizeof(Value{}); s != 24 {
		t.Fatalf("Value is %d bytes, want 24", s)
	}
	if s := unsafe.Sizeof(Pair{}); s != 40 {
		t.Fatalf("Pair is %d bytes, want 40", s)
	}
}

// TestValueAccessorsOnWrongKind: each accessor returns its zero value on
// a kind it does not hold, as reading the wrong field of the old
// five-field value did.
func TestValueAccessorsOnWrongKind(t *testing.T) {
	for _, v := range []Value{{}, IntV(3), FloatV(1.5), StrV("x"), VecV([]float32{1}), RectV(1, 2, 3, 4)} {
		if v.Kind != KindInt && v.Int() != 0 {
			t.Errorf("%v: Int() = %d", v.Kind, v.Int())
		}
		if v.Kind != KindFloat && v.Float() != 0 {
			t.Errorf("%v: Float() = %g", v.Kind, v.Float())
		}
		if v.Kind != KindStr && v.Str() != "" {
			t.Errorf("%v: Str() = %q", v.Kind, v.Str())
		}
		if v.Kind != KindVec && v.Kind != KindRect && v.Vec() != nil {
			t.Errorf("%v: Vec() = %v", v.Kind, v.Vec())
		}
	}
	if v := IntV(math.MinInt64); v.Int() != math.MinInt64 {
		t.Fatalf("IntV(MinInt64).Int() = %d", v.Int())
	}
	if v := FloatV(math.Copysign(0, -1)); math.Float64bits(v.Float()) != 1<<63 {
		t.Fatalf("FloatV(-0).Float() lost its sign")
	}
	if r := RectV(1, 2, 3, 4).Vec(); len(r) != 4 || r[2] != 3 {
		t.Fatalf("RectV(1, 2, 3, 4).Vec() = %v", r)
	}
}

// TestValueEqualCompareTables pins Equal and Compare across kinds, and
// across values whose payloads live in different allocations.
func TestValueEqualCompareTables(t *testing.T) {
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	heapStr := strings.Repeat("a", 2)
	for _, tc := range []struct {
		a, b  Value
		equal bool
		cmp   int
	}{
		{Value{}, Value{}, false, 0},
		{IntV(3), IntV(3), true, 0},
		{IntV(3), IntV(4), false, -1},
		{IntV(math.MaxInt64), IntV(math.MinInt64), false, 1},
		{IntV(-1), IntV(0), false, -1},
		{IntV(1), FloatV(1), false, -1},
		{StrV("a"), IntV(9), false, 1},
		{FloatV(1), FloatV(2), false, -1},
		{FloatV(negZero), FloatV(0), true, 0},
		{FloatV(nan), FloatV(nan), false, 0},
		{FloatV(nan), FloatV(1), false, -1},
		{FloatV(nan), FloatV(math.Inf(-1)), false, -1},
		{FloatV(math.Inf(-1)), FloatV(math.Inf(1)), false, -1},
		{StrV("aa"), StrV(heapStr), true, 0},
		{StrV(""), StrV(""), true, 0},
		{StrV(""), StrV("a"), false, -1},
		{StrV("b"), StrV("a"), false, 1},
		{VecV(nil), VecV([]float32{}), true, 0},
		{VecV([]float32{1, 2}), VecV([]float32{1, 2}), true, 0},
		{VecV([]float32{1, 2}), VecV([]float32{1, 3}), false, 0},
		{VecV([]float32{1}), VecV([]float32{1, 2}), false, 0},
		{VecV([]float32{float32(nan)}), VecV([]float32{float32(nan)}), false, 0},
		{VecV([]float32{float32(negZero)}), VecV([]float32{0}), true, 0},
		{RectV(1, 2, 3, 4), RectV(1, 2, 3, 4), true, 0},
		{RectV(1, 2, 3, 4), VecV([]float32{1, 2, 3, 4}), false, 1},
	} {
		if got := tc.a.Equal(tc.b); got != tc.equal {
			t.Errorf("%v(%v).Equal(%v(%v)) = %v, want %v", tc.a.Kind, tc.a, tc.b.Kind, tc.b, got, tc.equal)
		}
		if got := tc.b.Equal(tc.a); got != tc.equal {
			t.Errorf("%v(%v).Equal(%v(%v)) = %v, want %v", tc.b.Kind, tc.b, tc.a.Kind, tc.a, got, tc.equal)
		}
		if got := tc.a.Compare(tc.b); got != tc.cmp {
			t.Errorf("%v(%v).Compare(%v(%v)) = %d, want %d", tc.a.Kind, tc.a, tc.b.Kind, tc.b, got, tc.cmp)
		}
		if got := tc.b.Compare(tc.a); got != -tc.cmp {
			t.Errorf("%v(%v).Compare(%v(%v)) = %d, want %d", tc.b.Kind, tc.b, tc.a.Kind, tc.a, got, -tc.cmp)
		}
	}
}

// TestValueString: a value formats as what it holds.
func TestValueString(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{IntV(-3), "-3"},
		{FloatV(0.25), "0.25"},
		{FloatV(1e21), "1e+21"},
		{StrV("cls05"), "cls05"},
		{VecV([]float32{1, 2.5}), "[1 2.5]"},
		{RectV(1, 2, 3, 4), "[1 2 3 4]"},
		{VecV(nil), "[]"},
		{Value{}, "kind(0)"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		if got := fmt.Sprintf("%v", tc.v); got != tc.want {
			t.Errorf("%%v = %q, want %q", got, tc.want)
		}
	}
}

// TestValueKeepsPayloadAlive: a value's pointer is the only reference to
// its string's and vector's memory, and the collector keeps both.
func TestValueKeepsPayloadAlive(t *testing.T) {
	vals := make([]Value, 0, 64)
	for i := range 32 {
		vals = append(vals, StrV(fmt.Sprintf("str-%04d", i)), VecV([]float32{float32(i), float32(i) + 0.5}))
	}
	for range 3 {
		runtime.GC()
		for range 1000 {
			_ = make([]byte, 64) // reuse whatever the collector freed
		}
	}
	for i := range 32 {
		if s := vals[2*i].Str(); s != fmt.Sprintf("str-%04d", i) {
			t.Fatalf("string %d reads %q after GC", i, s)
		}
		if v := vals[2*i+1].Vec(); len(v) != 2 || v[0] != float32(i) || v[1] != float32(i)+0.5 {
			t.Fatalf("vector %d reads %v after GC", i, v)
		}
	}
}

// TestNilAndEmptyVectors: a nil vector and an empty non-nil vector each
// keep their form through Clone, Seal and Builder. Marshal writes both
// as length 0, and the decoded row holds an empty vector, which Clone
// and Builder keep.
func TestNilAndEmptyVectors(t *testing.T) {
	form := func(v Value) string {
		switch vec := v.Vec(); {
		case v.Kind != KindVec:
			return "kind " + v.Kind.String()
		case vec == nil:
			return "nil"
		case len(vec) == 0:
			return "empty"
		}
		return fmt.Sprint(v.Vec())
	}
	check := func(stage string, p *Patch, want map[string]string) {
		t.Helper()
		for k, w := range want {
			v, ok := p.Get(k)
			if got := form(v); !ok || got != w {
				t.Fatalf("%s: %s is %s (present %v), want %s", stage, k, got, ok, w)
			}
		}
	}
	b := &Patch{Ref: Ref{Source: "cam", Frame: 7}, Meta: Metadata{
		"a": VecV(nil),
		"b": VecV([]float32{}),
		"c": VecV(make([]float32, 4)[4:]),
	}}
	both := map[string]string{"a": "nil", "b": "empty", "c": "empty"}
	check("builder", b, both)
	check("builder clone", b.Clone(), both)
	raw := b.Marshal()

	sealed := b.Clone()
	sealed.Seal(metaPairs(sealed.Meta))
	check("sealed", sealed, both)
	check("sealed clone", sealed.Clone(), both)
	check("builder of sealed", sealed.Builder(), both)

	decoded, err := UnmarshalPatch(b.ID, raw)
	if err != nil {
		t.Fatal(err)
	}
	empty := map[string]string{"a": "empty", "b": "empty", "c": "empty"}
	check("decoded", decoded, empty)
	check("decoded clone", decoded.Clone(), empty)
	check("builder of decoded", decoded.Builder(), empty)
	for _, p := range []*Patch{decoded, decoded.Clone(), decoded.Builder()} {
		if got, want := p.Marshal(), sealed.Marshal(); string(got) != string(want) {
			t.Fatalf("decoded row marshals to %x, want %x", got, want)
		}
	}
}
