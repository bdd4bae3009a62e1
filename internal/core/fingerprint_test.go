package core

import "testing"

func TestFingerprintStability(t *testing.T) {
	fp := func() Fingerprint {
		return NewFingerprinter("query").
			Col("traffic.dets", 7).
			Str("filter.field", "label").
			Value("filter.eq", StrV("pedestrian")).
			Float("simjoin.eps", 0.15).
			Int("limit", 10).
			Sum()
	}
	a, b := fp(), fp()
	if a != b {
		t.Fatalf("identical plans fingerprint differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length = %d, want 64 hex chars", len(a))
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := func() Fingerprinter {
		return NewFingerprinter("query").Col("c", 1).Str("f", "label")
	}
	ref := base().Sum()
	variants := map[string]Fingerprint{
		"version bump":   NewFingerprinter("query").Col("c", 2).Str("f", "label").Sum(),
		"other col":      NewFingerprinter("query").Col("d", 1).Str("f", "label").Sum(),
		"other kind":     NewFingerprinter("infer").Col("c", 1).Str("f", "label").Sum(),
		"other value":    NewFingerprinter("query").Col("c", 1).Str("f", "score").Sum(),
		"extra param":    base().Int("limit", 1).Sum(),
		"typed int":      NewFingerprinter("query").Col("c", 1).Value("f", IntV(1)).Sum(),
		"typed str":      NewFingerprinter("query").Col("c", 1).Value("f", StrV("1")).Sum(),
		"typed float":    NewFingerprinter("query").Col("c", 1).Value("f", FloatV(1)).Sum(),
		"vec value":      NewFingerprinter("query").Col("c", 1).Value("f", VecV([]float32{1, 2})).Sum(),
		"vec value perm": NewFingerprinter("query").Col("c", 1).Value("f", VecV([]float32{2, 1})).Sum(),
	}
	seen := map[Fingerprint]string{"": "ref"}
	seen[ref] = "ref"
	for name, v := range variants {
		if v == ref {
			t.Errorf("%s collides with reference fingerprint", name)
		}
		if prev, ok := seen[v]; ok && prev != name {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[v] = name
	}
	// Concatenation ambiguity: ("ab","c") must differ from ("a","bc").
	x := NewFingerprinter("q").Str("ab", "c").Sum()
	y := NewFingerprinter("q").Str("a", "bc").Sum()
	if x == y {
		t.Fatal("length prefixing failed: token concatenation aliases")
	}
}

func TestCacheAwareCost(t *testing.T) {
	const est, lookup = 2.0, 1e-6
	cold := CacheAwareCost(est, 0, lookup)
	warm := CacheAwareCost(est, 1, lookup)
	half := CacheAwareCost(est, 0.5, lookup)
	if cold <= est-1e-9 || cold > est+lookup+1e-9 {
		t.Fatalf("cold cost = %g, want ~%g", cold, est+lookup)
	}
	if warm > 2*lookup {
		t.Fatalf("warm cost = %g, want ~%g", warm, lookup)
	}
	if half <= warm || half >= cold {
		t.Fatalf("half-warm cost %g not between %g and %g", half, warm, cold)
	}
	// Out-of-range hit rates clamp instead of producing negative costs.
	if got := CacheAwareCost(est, 1.5, lookup); got < 0 {
		t.Fatalf("clamped cost = %g, want >= 0", got)
	}
	if got := CacheAwareCost(est, -1, lookup); got > est+lookup+1e-9 {
		t.Fatalf("clamped cost = %g, want <= %g", got, est+lookup)
	}
}

// TestFingerprinterAllocs: a fingerprint whose tokens fit the caller's
// buffer, every token kind included, allocates nothing to build or sum.
func TestFingerprinterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	buf := make([]byte, 0, 512)
	vec := []float32{1, 2, 3, 4}
	var sum [64]byte
	allocs := testing.AllocsPerRun(100, func() {
		sum = StartFingerprint(buf, "query").
			Col("traffic.dets", 7).
			Str("filter.field", "label").
			Value("filter.eq", StrV("pedestrian")).
			Value("knn.query", VecV(vec)).
			Float("simjoin.eps", 0.15).
			Int("limit", 10).
			U64(3).
			HexSum()
	})
	if allocs != 0 {
		t.Fatalf("fingerprint over a caller's buffer: %.0f allocations, want 0", allocs)
	}
	want := NewFingerprinter("query").Col("traffic.dets", 7).Str("filter.field", "label").
		Value("filter.eq", StrV("pedestrian")).Value("knn.query", VecV(vec)).
		Float("simjoin.eps", 0.15).Int("limit", 10).U64(3).Sum()
	if string(sum[:]) != string(want) {
		t.Fatalf("HexSum %s, Sum %s", sum[:], want)
	}
}
