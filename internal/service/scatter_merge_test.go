package service

import (
	"context"
	"errors"
	"maps"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// mergeValue is one row's order-by value in the merge tests; missing
// rows carry no "v" field.
type mergeValue struct {
	v       core.Value
	missing bool
}

func mInt(i int64) mergeValue     { return mergeValue{v: core.IntV(i)} }
func mFloat(f float64) mergeValue { return mergeValue{v: core.FloatV(f)} }

var mMissing = mergeValue{missing: true}

// mergeCase is a merge input: each shard's rows (nil = a missing shard),
// the order and the limit.
type mergeCase struct {
	name   string
	shards [][]mergeValue
	desc   bool
	limit  int
}

// mergeCols are the merge tests' collections: mixed holds every case,
// with "v" undeclared, so a top-k orders its rows with CompareBy; floats
// holds the cases whose values are all floats, with "v" declared, so a
// top-k orders the column. Every row's "seq" is its row number in mixed.
type mergeCols struct{ mixed, floats *core.Collection }

// checkMerge builds the case's fragments over snapshot rows holding its
// values, each shard's rows stably sorted and trimmed to the limit as a
// shard's top-k keeps them, and checks mergeSortedRows against a stable
// sort of the kept rows concatenated in shard order. The row top-k over
// the case's rows must keep the same rows in the same order, and so must
// the column top-k when every value is a float.
func checkMerge(t *testing.T, cols mergeCols, c mergeCase) {
	t.Helper()
	col := cols.mixed
	base, err := col.Current()
	if err != nil {
		t.Fatal(err)
	}
	allFloats := true
	var floats []*core.Patch
	seq := base.Len()
	for _, sh := range c.shards {
		for _, mv := range sh {
			p := &core.Patch{Ref: core.Ref{Source: "merge"}, Meta: core.Metadata{"shard": core.IntV(1), "seq": core.IntV(int64(seq))}}
			if !mv.missing {
				p.Meta["v"] = mv.v
			}
			allFloats = allFloats && !mv.missing && mv.v.Kind == core.KindFloat
			floats = append(floats, &core.Patch{Ref: p.Ref, Meta: maps.Clone(p.Meta)})
			if err := col.Append(p); err != nil {
				t.Fatal(err)
			}
			seq++
		}
	}
	snap, err := col.Current()
	if err != nil {
		t.Fatal(err)
	}
	order := func(a, b int32) int { return core.CompareBy(snap.Row(int(a)), snap.Row(int(b)), "v", c.desc) }
	frags := make([]*shardFragment, len(c.shards))
	var kept []*core.Patch
	row := base.Len()
	for i, sh := range c.shards {
		sel := make([]int32, len(sh))
		for j := range sel {
			sel[j] = int32(row)
			row++
		}
		if sh == nil {
			continue
		}
		slices.SortStableFunc(sel, order)
		sel = sel[:min(len(sel), c.limit)]
		frags[i] = &shardFragment{snap: snap, Selection: core.Selection{Sel: sel}}
		for _, r := range sel {
			kept = append(kept, snap.Row(int(r)))
		}
	}
	slices.SortStableFunc(kept, func(a, b *core.Patch) int { return core.CompareBy(a, b, "v", c.desc) })
	want := kept[:min(len(kept), c.limit)]

	got, err := mergeSortedRows(context.Background(), frags, "v", c.desc, c.limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", c.name, len(got), len(want))
	}
	for i := range want {
		if p := got[i].patch(); p.ID != want[i].ID {
			gv, _ := p.Get("v")
			wv, _ := want[i].Get("v")
			t.Fatalf("%s: row %d is %v (id %d), want %v (id %d)", c.name, i, gv, p.ID, wv, want[i].ID)
		}
	}

	// The top-ks over the case's rows, by seq, keep what the merge keeps.
	caseRows := core.Pred{Field: "seq", Range: true, Lo: float64(base.Len()), Hi: float64(snap.Len())}
	keep := core.Keep{Kind: core.KeepTop, N: c.limit, Field: "v", Desc: c.desc}
	topK := func(path string, s core.Snapshot) {
		t.Helper()
		sel, err := s.Select(context.Background(), caseRows, core.FilterScan, keep)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Sel) != len(want) {
			t.Fatalf("%s: the %s top-k keeps %d rows, want %d", c.name, path, len(sel.Sel), len(want))
		}
		for i, r := range sel.Sel {
			gs, _ := s.Row(int(r)).Get("seq")
			ws, _ := want[i].Get("seq")
			if gs.Int() != ws.Int() {
				gv, _ := s.Row(int(r)).Get("v")
				wv, _ := want[i].Get("v")
				t.Fatalf("%s: the %s top-k's row %d is %v (seq %d), want %v (seq %d)", c.name, path, i, gv, gs.Int(), wv, ws.Int())
			}
		}
	}
	topK("row", snap)
	if !allFloats || len(floats) == 0 {
		return
	}
	for _, p := range floats {
		if err := cols.floats.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	fsnap, err := cols.floats.Current()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cols.floats.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cs.Column("v"); !ok {
		t.Fatal("the declared float field has no column")
	}
	topK("column", fsnap)
}

func mergeCollection(t *testing.T) mergeCols {
	t.Helper()
	db, err := core.Open(filepath.Join(t.TempDir(), "merge.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mixed, err := db.CreateCollection("merge", core.Schema{Data: core.Pixels(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	floats, err := db.CreateCollection("merge.floats", core.Schema{Data: core.Pixels(0, 0),
		Fields: []core.Field{{Name: "v", Kind: core.KindFloat}}})
	if err != nil {
		t.Fatal(err)
	}
	return mergeCols{mixed, floats}
}

// TestMergeSortedRowsIsStableSort: the gather's head-pick merge of the
// shards' sorted fragments returns a stable sort of their rows
// concatenated in shard order, cut at the limit, and the row and column
// top-ks keep the same rows. Value.Compare orders a NaN before every
// other float, so CompareBy is a total order and a stable sort is
// defined whatever floats a NaN meets.
func TestMergeSortedRowsIsStableSort(t *testing.T) {
	col := mergeCollection(t)
	nan := mFloat(math.NaN())
	cases := []mergeCase{
		{"ascending", [][]mergeValue{{mInt(3), mInt(1), mInt(5)}, {mInt(2), mInt(4)}, {mInt(0), mInt(6)}}, false, 100},
		{"descending", [][]mergeValue{{mInt(3), mInt(1), mInt(5)}, {mInt(2), mInt(4)}, {mInt(0), mInt(6)}}, true, 100},
		{"ties across shards", [][]mergeValue{{mInt(1), mInt(2), mInt(2)}, {mInt(2), mInt(1)}, {mInt(1), mInt(2), mInt(1)}}, false, 100},
		{"ties across shards descending", [][]mergeValue{{mFloat(1), mFloat(2)}, {mFloat(2), mFloat(1)}, {mFloat(2)}}, true, 100},
		{"limit below the total", [][]mergeValue{{mInt(5), mInt(1), mInt(3)}, {mInt(1), mInt(2)}, {mInt(0), mInt(1)}}, false, 3},
		{"limit below the total descending", [][]mergeValue{{mInt(5), mInt(1), mInt(3)}, {mInt(5), mInt(2)}, {mInt(0), mInt(5)}}, true, 2},
		{"missing values", [][]mergeValue{{mInt(2), mMissing}, {mMissing, mInt(1)}, {mInt(0), mMissing}}, false, 100},
		{"missing values descending", [][]mergeValue{{mInt(2), mMissing}, {mMissing, mInt(1)}, {mInt(0), mMissing}}, true, 4},
		{"NaN ties the float", [][]mergeValue{{mFloat(2), nan}, {nan, mFloat(2)}, {mFloat(2)}}, false, 100},
		{"NaN with ints and missing", [][]mergeValue{{nan, mInt(7), mMissing}, {mInt(1), nan}, {mMissing, mFloat(0.5)}}, false, 100},
		{"NaN with ints and missing descending", [][]mergeValue{{nan, mInt(7), mMissing}, {mInt(1), nan}, {mMissing, mFloat(0.5)}}, true, 3},
		{"NaN between shards", [][]mergeValue{{mFloat(1), mFloat(3)}, {nan}, {mFloat(2)}}, false, 2},
		{"NaN between shards descending", [][]mergeValue{{mFloat(1), mFloat(3)}, {nan}, {mFloat(2)}}, true, 2},
		{"NaNs among floats", [][]mergeValue{{mFloat(2), nan, mFloat(-1)}, {nan, mFloat(0.5), nan}, {mFloat(-1), mFloat(3)}}, false, 4},
		{"NaNs among floats descending", [][]mergeValue{{mFloat(2), nan, mFloat(-1)}, {nan, mFloat(0.5), nan}, {mFloat(-1), mFloat(3)}}, true, 7},
		{"NaN with infinities", [][]mergeValue{{mFloat(math.Inf(1)), nan}, {mFloat(math.Inf(-1))}, {nan, mFloat(0)}}, false, 3},
		{"missing shards", [][]mergeValue{nil, {mInt(4), mInt(2)}, nil, {mInt(3)}, {}}, false, 100},
		{"every shard missing", [][]mergeValue{nil, nil}, false, 10},
		{"one shard", [][]mergeValue{{mInt(2), mInt(2), mInt(1)}}, true, 2},
	}
	for _, c := range cases {
		checkMerge(t, col, c)
	}

	// Seeded random cases: up to five shards, some missing, values drawn
	// from a small domain so ties are common; a case holding a NaN keeps
	// its other floats to one value.
	randomCases(t, col, 1, func(rng *rand.Rand, n int) mergeValue {
		withNaN := n%3 == 0
		switch k := rng.Intn(10); {
		case k == 0:
			return mMissing
		case k < 4:
			return mInt(int64(rng.Intn(4)))
		case withNaN && k < 6:
			return mFloat(math.NaN())
		case withNaN:
			return mFloat(1.5)
		default:
			return mFloat(float64(rng.Intn(4)) / 2)
		}
	})
	// NaNs among any floats, and only floats, so the column top-k runs
	// on every case.
	randomCases(t, col, 2, func(rng *rand.Rand, n int) mergeValue {
		if rng.Intn(10) < 3 {
			return mFloat(math.NaN())
		}
		return mFloat(float64(rng.Intn(7))/2 - 1)
	})
}

// randomCases checks 300 seeded random merge cases whose values draw
// returns (n is the case's number).
func randomCases(t *testing.T, col mergeCols, seed int64, draw func(rng *rand.Rand, n int) mergeValue) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < 300; n++ {
		c := mergeCase{name: "random", desc: rng.Intn(2) == 1, limit: 1 + rng.Intn(12)}
		c.shards = make([][]mergeValue, 1+rng.Intn(5))
		for i := range c.shards {
			if rng.Intn(6) == 0 {
				continue // a missing shard
			}
			c.shards[i] = make([]mergeValue, rng.Intn(8))
			for j := range c.shards[i] {
				c.shards[i][j] = draw(rng, n)
			}
		}
		checkMerge(t, col, c)
	}
}

// TestScatterWaveReturnsLowestTaskError: a wave whose tasks 1 and 2 fail
// answers with task 1's error although task 2 fails first.
func TestScatterWaveReturnsLowestTaskError(t *testing.T) {
	_, s := synthUnsharded(t, 1, Config{Workers: 1})
	err1, err2 := errors.New("task 1"), errors.New("task 2")
	for run := 0; run < 20; run++ {
		failed2 := make(chan struct{})
		err := s.scatterWave(4, func(task int) error {
			switch task {
			case 1:
				<-failed2
				return err1
			case 2:
				close(failed2)
				return err2
			}
			return nil
		})
		if !errors.Is(err, err1) {
			t.Fatalf("run %d: wave returned %v, want task 1's error", run, err)
		}
	}
}
