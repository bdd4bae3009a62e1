package core

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exec"
)

// selectIDs runs one selection over snap and resolves it to ids in
// snapshot order (never nil, so empty answers compare equal).
func selectIDs(t *testing.T, snap Snapshot, pred Pred, m FilterMethod) []PatchID {
	t.Helper()
	s, err := snap.Select(context.Background(), pred, m, Keep{})
	if err != nil {
		t.Fatalf("%v %+v: %v", m, pred, err)
	}
	ids := []PatchID{}
	for _, i := range s.Sel {
		ids = append(ids, snap.Row(int(i)).ID)
	}
	return ids
}

// TestSelectBTreeRangeExtendedEqualsFresh: numeric-widening ranges over
// an int and a float column return the same ids from segment orders
// sorted as the collection grew as from a fresh build over its rows, and
// both equal the row scan — also for a reader one batch behind, whose
// snapshot ends inside a segment the store has since sealed.
func TestSelectBTreeRangeExtendedEqualsFresh(t *testing.T) {
	sch := Schema{Fields: []Field{{Name: "i", Kind: KindInt}, {Name: "f", Kind: KindFloat}}}
	add := func(col *Collection, from, to int) {
		for i := from; i < to; i++ {
			p := &Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Meta: Metadata{
				"i": IntV(int64(i%41 - 20)), "f": FloatV(float64(i%41) - 20.25)}}
			if err := col.Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	db := openDB(t)
	col, err := db.CreateCollection("mix", sch)
	if err != nil {
		t.Fatal(err)
	}
	add(col, 0, 1500)
	for _, field := range []string{"i", "f"} {
		if _, err := db.BuildIndex(col, field, IdxSorted); err != nil {
			t.Fatal(err)
		}
	}
	behind, _ := col.Current()
	add(col, 1500, 2700)
	snap, _ := col.Current()

	ranges := [][2]float64{{-3.5, 7}, {-20, 21}, {0, 0.5}, {4, 4}, {-1e300, 1e300}, {6.75, 6.76}}
	answers := func(snap Snapshot, m FilterMethod) [][]PatchID {
		var out [][]PatchID
		for _, r := range ranges {
			for _, field := range []string{"i", "f"} {
				out = append(out, selectIDs(t, snap, Pred{Field: field, Range: true, Lo: r[0], Hi: r[1]}, m))
			}
		}
		return out
	}
	extended := answers(snap, FilterIndex)
	if got := db.RefreshStats().ScalarSorted; got != 4 {
		t.Fatalf("%d segments sorted, want 2 in each of 2 columns", got)
	}
	if want := answers(snap, FilterScan); !reflect.DeepEqual(extended, want) {
		t.Fatalf("extended index ranges diverge from the row scan:\n got %v\nwant %v", extended, want)
	}
	if got, want := answers(behind, FilterIndex), answers(behind, FilterScan); !reflect.DeepEqual(got, want) {
		t.Fatalf("reader behind the store: ranges diverge from the row scan over its snapshot")
	}
	fdb := openDB(t)
	fcol, err := fdb.CreateCollection("mix", sch)
	if err != nil {
		t.Fatal(err)
	}
	add(fcol, 0, 2700)
	fsnap, _ := fcol.Current()
	if fresh := answers(fsnap, FilterIndex); !reflect.DeepEqual(extended, fresh) {
		t.Fatal("extended index ranges diverge from a fresh build")
	}
}

// fuzzInt draws the int domain: mostly a small range (so equality hits),
// sometimes the int64 edges and ints past 2^53 that widen to a float
// rounded up onto a representable neighbour (a bound the index's int
// probe must place exactly like the row predicate's widening does).
func fuzzInt(r *rand.Rand) int64 {
	if r.Intn(16) == 0 {
		return []int64{math.MinInt64, math.MaxInt64, 1<<53 + 3, -(1<<53 + 1)}[r.Intn(4)]
	}
	return int64(r.Intn(17) - 8)
}

// fuzzFloat draws the float domain: mostly quarter steps, sometimes the
// values the kind-prefixed sort keys must still order like the row
// predicate compares them (signed zero, infinities, NaN) and the floats
// fuzzInt's edge ints widen to.
func fuzzFloat(r *rand.Rand) float64 {
	if r.Intn(16) == 0 {
		return []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1<<53 + 4, -(1 << 53), 1 << 63}[r.Intn(7)]
	}
	return float64(r.Intn(33)-16) / 4
}

// fuzzRow generates row i of the seeded append sequence: declared int,
// float and string fields, and two undeclared fields, which have no
// column, so a filter or order-by on either runs as the row scan: one
// that mixes ints and floats, and a float field half the rows lack.
func fuzzRow(r *rand.Rand, i int) *Patch {
	m := IntV(fuzzInt(r))
	if r.Intn(2) == 0 {
		m = FloatV(fuzzFloat(r))
	}
	p := &Patch{Ref: Ref{Source: "fz", Frame: uint64(i)}, Meta: Metadata{
		"i": IntV(fuzzInt(r)),
		"f": FloatV(fuzzFloat(r)),
		"s": StrV([]string{"", "a", "bb", "ccc"}[r.Intn(4)]),
		"m": m,
	}}
	if r.Intn(2) == 0 {
		p.Meta["n"] = FloatV(fuzzFloat(r))
	}
	return p
}

// keepsAgree checks every consumer of one selection against its
// keep-everything answer: each reports the answer's length as N, a count
// keeps no rows, first-n keeps the answer's first n rows, and top-n by
// any field — ties, NaNs and missing values included — keeps heapTopK's
// top-n of the answer's rows.
func keepsAgree(t *testing.T, snap Snapshot, pred Pred, m FilterMethod, n int) {
	t.Helper()
	ctx := context.Background()
	var all []*Patch
	run := func(keep Keep) []*Patch {
		t.Helper()
		s, err := snap.Select(ctx, pred, m, keep)
		if err != nil {
			t.Fatalf("%v %+v keep %+v: %v", m, pred, keep, err)
		}
		ps := snap.Materialize(s.Sel)
		if keep.Kind == KeepAll {
			return ps
		}
		if s.N != len(all) {
			t.Fatalf("%d rows, %v %+v keep %+v: N=%d, %d matches", snap.Len(), m, pred, keep, s.N, len(all))
		}
		return ps
	}
	all = run(Keep{})
	if m == 0 && len(all) != snap.Len() {
		t.Fatalf("no predicate: %d of %d rows", len(all), snap.Len())
	}
	if got := run(Keep{Kind: KeepCount}); len(got) != 0 {
		t.Fatalf("%v %+v: count kept %d rows", m, pred, len(got))
	}
	if got, want := run(Keep{Kind: KeepFirst, N: n}), all[:min(n, len(all))]; !idsEqual(patchIDs(got), patchIDs(want)) {
		t.Fatalf("%d rows, %v %+v first %d: %v, want %v", snap.Len(), m, pred, n, patchIDs(got), patchIDs(want))
	}
	for _, field := range []string{"i", "f", "s", "m", "n"} {
		for _, desc := range []bool{false, true} {
			got := run(Keep{Kind: KeepTop, N: n, Field: field, Desc: desc})
			if want := heapTopK(all, field, desc, n); !idsEqual(patchIDs(got), patchIDs(want)) {
				t.Fatalf("%d rows, %v %+v top %d by %s desc=%v: %v, want %v",
					snap.Len(), m, pred, n, field, desc, patchIDs(got), patchIDs(want))
			}
		}
	}
}

// heapTopK is the first k of ps under CompareBy, ties in input order,
// kept by a bounded heap over ps. NaN makes CompareBy non-transitive, and
// then no sort defines that answer (referenceTopK's stable sort is one
// arrangement of many); the heap's depends only on its candidates, and
// every path must give the same one.
func heapTopK(ps []*Patch, field string, desc bool, k int) []*Patch {
	if k = min(k, len(ps)); k <= 0 {
		return nil
	}
	top := topHeap[int]{k: k, before: func(a, b int) bool {
		if c := CompareBy(ps[a], ps[b], field, desc); c != 0 {
			return c < 0
		}
		return a < b
	}}
	for i := range ps {
		top.offer(i)
	}
	out := make([]*Patch, 0, k)
	for _, i := range top.sorted() {
		out = append(out, ps[i])
	}
	return out
}

// FuzzSelectPathsAgree is the differential test over Snapshot.Select: for a
// seeded append sequence and equality/range predicates on every field,
// the row scan, the column scan, the index probe and the
// column scan over a tiered store at a one-byte budget (the database
// reopened under it) must return the same rows in the same order — for
// the current snapshot and for one
// taken before a later append (the reader-behind-index and the column
// clipping cases). On every path — scans and index probes alike — and
// on the unfiltered walk, every consumer must agree with the
// keep-everything answer (keepsAgree).
// Then the database, its columns projected under the segment cache, is
// closed and reopened under one again: the reopened snapshot holds the same
// rows in the same order, and every access path — re-projected columns,
// the reopened index's re-sorted segments — returns the row scan's ids and
// first n rows over it.
func FuzzSelectPathsAgree(f *testing.F) {
	f.Add(int64(1), uint16(40), uint16(7), -1.5, 2.25)
	f.Add(int64(2), uint16(2100), uint16(130), math.Inf(-1), 0.0)
	f.Add(int64(3), uint16(1030), uint16(0), -1e300, 1e300)
	f.Add(int64(4), uint16(600), uint16(40), float64(1<<53+4), float64(1<<63))
	f.Add(int64(5), uint16(2590), uint16(290), -2.0, 2.0) // two sealed segments and a tail
	f.Fuzz(func(t *testing.T, seed int64, rows, later uint16, lo, hi float64) {
		n, extra := int(rows%2600), int(later%300)
		r := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "dl.db")
		db, err := Open(path, exec.New(exec.CPU))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if db != nil {
				db.Close()
			}
		})
		col, err := db.CreateCollection("fz", Schema{Fields: []Field{
			{Name: "i", Kind: KindInt}, {Name: "f", Kind: KindFloat}, {Name: "s", Kind: KindStr},
		}})
		if err != nil {
			t.Fatal(err)
		}
		add := func(from, to int) {
			for i := from; i < to; i++ {
				if err := col.Append(fuzzRow(r, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		add(0, n)
		behind, _ := col.Current()
		add(n, n+extra)
		snap, _ := col.Current()

		preds := []Pred{
			{Field: "i", V: IntV(fuzzInt(r))}, {Field: "i", V: FloatV(0)},
			{Field: "f", V: FloatV(fuzzFloat(r))}, {Field: "f", V: FloatV(0)},
			{Field: "s", V: StrV("a")}, {Field: "s", V: StrV("")},
			{Field: "m", V: IntV(fuzzInt(r))}, {Field: "m", V: FloatV(fuzzFloat(r))},
		}
		for _, field := range []string{"i", "f", "m", "s"} {
			preds = append(preds, Pred{Field: field, Range: true, Lo: lo, Hi: hi},
				Pred{Field: field, Range: true, Lo: fuzzFloat(r), Hi: fuzzFloat(r)})
		}
		keep := 1 + r.Intn(40) // the first-n and top-n row count
		views := []Snapshot{behind, snap}
		want := make([][][]PatchID, len(views))
		for v, vw := range views {
			for _, p := range preds {
				rows := selectIDs(t, vw, p, FilterScan)
				want[v] = append(want[v], rows)
				methods := []FilterMethod{FilterColumnScan, FilterIndex}
				for _, m := range methods {
					if got := selectIDs(t, vw, p, m); !reflect.DeepEqual(got, rows) {
						t.Fatalf("%d/%d rows, %v %+v: %d ids, row scan %d", vw.Len(), snap.Len(), m, p, len(got), len(rows))
					}
				}
				keepsAgree(t, vw, p, FilterScan, keep)
				for _, m := range methods {
					keepsAgree(t, vw, p, m, keep)
				}
			}
			keepsAgree(t, vw, Pred{}, 0, keep)
		}
		// The same column scans over a tiered store that can keep no
		// segment resident, built by the first query after a reopen.
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(path, exec.New(exec.CPU)); err != nil {
			t.Fatal(err)
		}
		db.SetSegmentCache(NewSegmentCache(1))
		if col, err = db.Collection("fz"); err != nil {
			t.Fatal(err)
		}
		cur, err := col.Current()
		if err != nil {
			t.Fatal(err)
		}
		for v, vw := range views {
			vw = Snapshot{col, cur.tab, vw.Len(), vw.version} // the view's rows, read through the reopened collection
			for k, p := range preds {
				if got := selectIDs(t, vw, p, FilterColumnScan); !reflect.DeepEqual(got, want[v][k]) {
					t.Fatalf("tiered %d/%d rows, %+v: %d ids, row scan %d", vw.Len(), snap.Len(), p, len(got), len(want[v][k]))
				}
				keepsAgree(t, vw, p, FilterColumnScan, keep)
			}
			keepsAgree(t, vw, Pred{}, 0, keep)
		}

		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(path, exec.New(exec.CPU)); err != nil {
			t.Fatal(err)
		}
		db.SetSegmentCache(NewSegmentCache(1))
		if col, err = db.Collection("fz"); err != nil {
			t.Fatal(err)
		}
		rsnap, err := col.Current()
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(patchIDs(rsnap.Patches()), patchIDs(snap.Patches())) {
			t.Fatalf("reopened %d rows: not the %d rows before the close, in order", rsnap.Len(), snap.Len())
		}
		for k, p := range preds {
			rows := selectIDs(t, rsnap, p, FilterScan)
			if !reflect.DeepEqual(rows, want[1][k]) {
				t.Fatalf("reopened %d rows, %+v: row scan %d ids, %d before the close", rsnap.Len(), p, len(rows), len(want[1][k]))
			}
			first := rows[:min(keep, len(rows))]
			methods := []FilterMethod{FilterColumnScan, FilterIndex}
			for _, m := range methods {
				if got := selectIDs(t, rsnap, p, m); !reflect.DeepEqual(got, rows) {
					t.Fatalf("reopened %d rows, %v %+v: %d ids, row scan %d", rsnap.Len(), m, p, len(got), len(rows))
				}
				if got := firstIDs(t, rsnap, p, m, keep); !idsEqual(got, first) {
					t.Fatalf("reopened %d rows, %v %+v first %d: %v, row scan %v", rsnap.Len(), m, p, keep, got, first)
				}
			}
		}
	})
}
