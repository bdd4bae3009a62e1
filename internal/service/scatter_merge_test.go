package service

import (
	"context"
	"errors"
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

// checkMerge builds the case's fragments over snapshot rows holding its
// values, each shard's rows stably sorted and trimmed to the limit as a
// shard's top-k keeps them, and checks mergeSortedRows against a stable
// sort of the kept rows concatenated in shard order.
func checkMerge(t *testing.T, col *core.Collection, c mergeCase) {
	t.Helper()
	base, err := col.Current()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range c.shards {
		for _, mv := range sh {
			p := &core.Patch{Ref: core.Ref{Source: "merge"}, Meta: core.Metadata{"shard": core.IntV(1)}}
			if !mv.missing {
				p.Meta["v"] = mv.v
			}
			if err := col.Append(p); err != nil {
				t.Fatal(err)
			}
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
		if got[i].p != want[i] {
			gv, _ := got[i].p.Get("v")
			wv, _ := want[i].Get("v")
			t.Fatalf("%s: row %d is %v (id %d), want %v (id %d)", c.name, i, gv, got[i].p.ID, wv, want[i].ID)
		}
	}
}

func mergeCollection(t *testing.T) *core.Collection {
	t.Helper()
	db, err := core.Open(filepath.Join(t.TempDir(), "merge.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	col, err := db.CreateCollection("merge", core.Schema{Data: core.Pixels(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// TestMergeSortedRowsIsStableSort: the gather's head-pick merge of the
// shards' sorted fragments returns a stable sort of their rows
// concatenated in shard order, cut at the limit. A NaN compares equal
// to every float (Value.Compare), so CompareBy is a strict weak order
// only while the floats a merge sees hold one other value; the NaN
// cases keep to that, where a stable sort is defined.
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
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		withNaN := n%3 == 0
		draw := func() mergeValue {
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
		}
		c := mergeCase{name: "random", desc: rng.Intn(2) == 1, limit: 1 + rng.Intn(12)}
		c.shards = make([][]mergeValue, 1+rng.Intn(5))
		for i := range c.shards {
			if rng.Intn(6) == 0 {
				continue // a missing shard
			}
			c.shards[i] = make([]mergeValue, rng.Intn(8))
			for j := range c.shards[i] {
				c.shards[i][j] = draw()
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
