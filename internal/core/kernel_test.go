package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kernelPatches builds n rows over an int field "i", a float field "f"
// and a string field "s" whose values cycle through the edge cases the
// match kernels must get right, interleaved with seeded random values.
func kernelPatches(n int) []*Patch {
	ints := []int64{0, 1, -1, 1 << 53, -1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MinInt64, math.MaxInt64, 7}
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 53, -1 << 53, 0.5, -0.5, 1e300, math.MaxInt64}
	strs := []string{"a", "b", "c", "", "d"}
	r := rand.New(rand.NewSource(int64(n)))
	ps := make([]*Patch, n)
	for j := range ps {
		p := &Patch{Meta: Metadata{
			"i": IntV(ints[j%len(ints)]),
			"f": FloatV(floats[j%len(floats)]),
			"s": StrV(strs[r.Intn(len(strs))]),
		}}
		if j%3 == 1 {
			p.Meta["i"] = IntV(r.Int63n(21) - 10)
			p.Meta["f"] = FloatV(float64(r.Intn(9)-4) / 2)
		}
		ps[j] = p
	}
	return ps
}

// TestMatchKernelsAgreeWithPred runs every match kernel instance —
// equality over ints, floats and dictionary codes, ranges over ints and
// floats — through matcher.match on columns of 1, 63, 64, 1,023, 1,024
// and 2,111 rows, also for snapshots that stop inside a segment, and
// checks its rows against Pred.Match row by row: −0, NaN, ±Inf, ±2^53
// and ±(2^53+1), MinInt64 and MaxInt64, every dictionary code, NaN
// bounds, lo == hi and lo > hi.
func TestMatchKernelsAgreeWithPred(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	edges := []float64{nan, -inf, inf, math.Copysign(0, -1), 0, 0.5, -1, 1 << 53, -1 << 53,
		1<<53 + 2, math.MinInt64, math.MaxInt64, 1e300}
	var preds []Pred
	for _, f := range []string{"i", "f"} {
		for _, lo := range edges {
			for _, hi := range edges {
				preds = append(preds, Pred{Field: f, Range: true, Lo: lo, Hi: hi})
			}
		}
	}
	for _, v := range []int64{0, 1, -1, 1 << 53, -1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MinInt64, math.MaxInt64, 7, 42} {
		preds = append(preds, Pred{Field: "i", V: IntV(v)}, Pred{Field: "f", V: FloatV(float64(v))})
	}
	for _, v := range []float64{math.Copysign(0, -1), nan, inf, -inf, 0.5, -0.5, 1e300, 3} {
		preds = append(preds, Pred{Field: "f", V: FloatV(v)})
	}
	for _, s := range []string{"a", "b", "c", "", "d", "absent"} {
		preds = append(preds, Pred{Field: "s", V: StrV(s)})
	}
	kinds := map[string]ValueKind{"i": KindInt, "f": KindFloat, "s": KindStr}
	var blk [ColumnBlockSize]int32
	for _, n := range []int{1, 63, 64, 1023, 1024, 2*ColumnBlockSize + 63} {
		ps := kernelPatches(n)
		cols := map[string]*Column{}
		for f, kind := range kinds {
			cols[f] = projectColumn(snapshotOf(ps, 1), f, kind)
		}
		// The column's own length, and snapshots cut inside its last
		// segment and inside its first.
		for _, snap := range slices.Compact([]int{n, n - 1, max(n-40, 1), min(n, 10)}) {
			for _, pred := range preds {
				col := cols[pred.Field]
				m, ok := compileMatcher(&pred, col)
				var got, want []int32
				for i, p := range ps[:snap] {
					if pred.Match(p) {
						want = append(want, int32(i))
					}
				}
				if ok {
					for _, sg := range col.segs {
						if sg.zone.lo >= snap {
							break
						}
						c := m.match(&blk, sg.data.Load(), sg.zone.lo, min(sg.zone.hi, snap)-sg.zone.lo)
						got = append(got, blk[:c]...)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%d rows, snapshot %d, %s: kernel kept %v, Pred.Match %v", n, snap, predString(pred), got, want)
				}
			}
		}
	}
}

func predString(p Pred) string {
	if p.Range {
		return fmt.Sprintf("%s in [%v, %v)", p.Field, p.Lo, p.Hi)
	}
	return fmt.Sprintf("%s == %v", p.Field, p.V)
}

// TestZoneMapSkipsNaN: a NaN in a float segment never widens its zone
// map. A segment whose first row is NaN prunes like one without it, and
// an all-NaN segment prunes every equality and range a row can match.
func TestZoneMapSkipsNaN(t *testing.T) {
	const rows = 2 * ColumnBlockSize
	store := func(score func(i int) float64) *ColumnStore {
		ps := make([]*Patch, rows)
		for i := range ps {
			ps[i] = columnPatch(i)
			ps[i].Meta["score"] = FloatV(score(i))
		}
		return newColumnStore(snapshotOf(ps, 1), nil)
	}
	for _, first := range []float64{0.5, math.NaN()} {
		cs := store(func(i int) float64 {
			if i == 0 {
				return first
			}
			return 0.5
		})
		if sel, st, _ := cs.FilterRangeStats("score", 10, 20); len(sel) != 0 || st.Pruned != 2 || st.RowsScanned != 0 {
			t.Fatalf("row 0 = %v, score in [10, 20): %d rows, %d of 2 segments pruned, %d rows scanned; want all pruned",
				first, len(sel), st.Pruned, st.RowsScanned)
		}
	}
	// Segment 0 all NaN, segment 1 all 0.5.
	cs := store(func(i int) float64 {
		if i < ColumnBlockSize {
			return math.NaN()
		}
		return 0.5
	})
	for _, c := range []struct {
		name               string
		sel                func() ([]int32, ScanStats, bool)
		wantRows, wantPrun int
	}{
		{"score == 0.5", func() ([]int32, ScanStats, bool) { return cs.FilterEqStats("score", FloatV(0.5)) }, ColumnBlockSize, 1},
		{"score == +Inf", func() ([]int32, ScanStats, bool) { return cs.FilterEqStats("score", FloatV(math.Inf(1))) }, 0, 2},
		{"score in [-Inf, +Inf)", func() ([]int32, ScanStats, bool) {
			return cs.FilterRangeStats("score", math.Inf(-1), math.Inf(1))
		}, ColumnBlockSize, 1},
	} {
		sel, st, _ := c.sel()
		if len(sel) != c.wantRows || st.Pruned != c.wantPrun {
			t.Fatalf("%s over an all-NaN segment and an all-0.5 one: %d rows, %d of 2 segments pruned; want %d rows, %d pruned",
				c.name, len(sel), st.Pruned, c.wantRows, c.wantPrun)
		}
	}
}

// BenchmarkMatchKernels times each match kernel over one shard's worth
// of scan_inmem rows — 66 segments of 1,024 — at about 0.1% (a rank
// equality, 1 of 1,009), 2%, 30% and 50% selectivity on uniformly random
// data. A branch-free kernel costs the same at every selectivity; the
// branching one it replaced was cheaper only near 0%.
func BenchmarkMatchKernels(b *testing.B) {
	const segs = 66
	r := rand.New(rand.NewSource(1))
	ints := make([][]int64, segs)
	floats := make([][]float64, segs)
	for s := range segs {
		ints[s] = make([]int64, ColumnBlockSize)
		floats[s] = make([]float64, ColumnBlockSize)
		for j := range ColumnBlockSize {
			ints[s][j] = r.Int63n(10000)
			floats[s][j] = r.Float64()
		}
	}
	var blk [ColumnBlockSize]int32
	for _, sel := range []float64{0.001, 0.02, 0.30, 0.50} {
		// Equality data is 0 where the random ints fall below the
		// selectivity's cut and 1 elsewhere; the constant is 0.
		eqInts := make([][]int64, segs)
		eqFloats := make([][]float64, segs)
		eqCodes := make([][]uint32, segs)
		for s := range segs {
			eqInts[s] = make([]int64, ColumnBlockSize)
			eqFloats[s] = make([]float64, ColumnBlockSize)
			eqCodes[s] = make([]uint32, ColumnBlockSize)
			for j, x := range ints[s] {
				if x >= int64(sel*10000) {
					eqInts[s][j], eqFloats[s][j], eqCodes[s][j] = 1, 1, 1
				}
			}
		}
		pct := fmt.Sprintf("%.1f%%", 100*sel)
		bench := func(name string, kernel func(s int) int) {
			b.Run(name+"/"+pct, func(b *testing.B) {
				kept := 0
				for b.Loop() {
					kept = 0
					for s := range segs {
						kept += kernel(s)
					}
				}
				b.ReportMetric(float64(kept)/(segs*ColumnBlockSize), "kept")
			})
		}
		// A range starts at 0.5, so its lower bound is a coin flip per row.
		bench("range-float", func(s int) int { return matchRange(&blk, floats[s], s*ColumnBlockSize, 0.5, 0.5+sel) })
		bench("range-int", func(s int) int { return matchRange(&blk, ints[s], s*ColumnBlockSize, 5000, 5000+10000*sel) })
		bench("eq-int", func(s int) int { return matchEq(&blk, eqInts[s], s*ColumnBlockSize, 0) })
		bench("eq-float", func(s int) int { return matchEq(&blk, eqFloats[s], s*ColumnBlockSize, 0) })
		bench("eq-code", func(s int) int { return matchEq(&blk, eqCodes[s], s*ColumnBlockSize, 0) })
	}
}
