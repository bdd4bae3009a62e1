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

// selectIDs runs one selection over (snap, ver) and resolves it to ids in
// snapshot order (never nil, so empty answers compare equal).
func selectIDs(t *testing.T, db *DB, col *Collection, snap []*Patch, ver uint64, pred Pred, m FilterMethod) []PatchID {
	t.Helper()
	s, err := db.Select(context.Background(), col, snap, ver, pred, m, Keep{})
	if err != nil {
		t.Fatalf("%v %+v: %v", m, pred, err)
	}
	ids := []PatchID{}
	for _, i := range s.Sel {
		ids = append(ids, snap[i].ID)
	}
	return ids
}

// TestSelectBTreeRangeExtendedEqualsFresh: the numeric-widening range
// over a field holding ints and floats returns the same ids from a
// B-tree that grew by extension as from one built fresh, and both equal
// the row scan — also for a reader one batch behind the index.
func TestSelectBTreeRangeExtendedEqualsFresh(t *testing.T) {
	db := openDB(t)
	col, err := db.CreateCollection("mix", Schema{})
	if err != nil {
		t.Fatal(err)
	}
	add := func(from, to int) {
		for i := from; i < to; i++ {
			v := IntV(int64(i%41 - 20))
			if i%3 == 0 {
				v = FloatV(float64(i%41) - 20.25)
			}
			if err := col.Append(&Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Meta: Metadata{"v": v}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(0, 300)
	if _, err := db.BuildIndex(col, "v", IdxBTree); err != nil {
		t.Fatal(err)
	}
	behind, behindVer, _ := col.Snapshot()
	add(300, 700)
	snap, ver, _ := col.Snapshot()

	ranges := [][2]float64{{-3.5, 7}, {-20, 21}, {0, 0.5}, {4, 4}, {-1e300, 1e300}, {6.75, 6.76}}
	answers := func(snap []*Patch, ver uint64, m FilterMethod) [][]PatchID {
		var out [][]PatchID
		for _, r := range ranges {
			out = append(out, selectIDs(t, db, col, snap, ver, Pred{Field: "v", Range: true, Lo: r[0], Hi: r[1]}, m))
		}
		return out
	}
	extended := answers(snap, ver, FilterBTreeIndex)
	if rs := db.RefreshStats(); rs.ScalarExtends != 1 || rs.ScalarRebuilds != 1 || rs.ScalarInserted != 700 {
		t.Fatalf("extends %d rebuilds %d inserted %d, want 1/1/700", rs.ScalarExtends, rs.ScalarRebuilds, rs.ScalarInserted)
	}
	if want := answers(snap, ver, FilterScan); !reflect.DeepEqual(extended, want) {
		t.Fatalf("extended index ranges diverge from the row scan:\n got %v\nwant %v", extended, want)
	}
	if got, want := answers(behind, behindVer, FilterBTreeIndex), answers(behind, behindVer, FilterScan); !reflect.DeepEqual(got, want) {
		t.Fatalf("reader behind the index: ranges diverge from the row scan over its snapshot")
	}
	if _, err := db.BuildIndex(col, "v", IdxBTree); err != nil {
		t.Fatal(err)
	}
	if fresh := answers(snap, ver, FilterBTreeIndex); !reflect.DeepEqual(extended, fresh) {
		t.Fatal("extended index ranges diverge from a fresh build")
	}
}

// fuzzInt draws the int domain: mostly a small range (so equality hits),
// sometimes the int64 edges and ints past 2^53 that widen to a float
// rounded up onto a representable neighbour (a bound the B-tree's int
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
// float and string fields, an undeclared field that mixes ints and
// floats (never columnizable, so the column scan falls back to rows) and
// an undeclared float field half the rows lack (nulls in its column).
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
func keepsAgree(t *testing.T, db *DB, col *Collection, snap []*Patch, ver uint64, pred Pred, m FilterMethod, n int) {
	t.Helper()
	ctx := context.Background()
	var all []*Patch
	run := func(keep Keep) []*Patch {
		t.Helper()
		s, err := db.Select(ctx, col, snap, ver, pred, m, keep)
		if err != nil {
			t.Fatalf("%v %+v keep %+v: %v", m, pred, keep, err)
		}
		ps := s.Patches(snap, -1)
		if keep.Kind == KeepAll {
			return ps
		}
		if s.N != len(all) {
			t.Fatalf("%d rows, %v %+v keep %+v: N=%d, %d matches", len(snap), m, pred, keep, s.N, len(all))
		}
		return ps
	}
	all = run(Keep{})
	if m == 0 && len(all) != len(snap) {
		t.Fatalf("no predicate: %d of %d rows", len(all), len(snap))
	}
	if got := run(Keep{Kind: KeepCount}); len(got) != 0 {
		t.Fatalf("%v %+v: count kept %d rows", m, pred, len(got))
	}
	if got, want := run(Keep{Kind: KeepFirst, N: n}), all[:min(n, len(all))]; !idsEqual(patchIDs(got), patchIDs(want)) {
		t.Fatalf("%d rows, %v %+v first %d: %v, want %v", len(snap), m, pred, n, patchIDs(got), patchIDs(want))
	}
	for _, field := range []string{"i", "f", "s", "m", "n"} {
		for _, desc := range []bool{false, true} {
			got := run(Keep{Kind: KeepTop, N: n, Field: field, Desc: desc})
			if want := heapTopK(all, field, desc, n); !idsEqual(patchIDs(got), patchIDs(want)) {
				t.Fatalf("%d rows, %v %+v top %d by %s desc=%v: %v, want %v",
					len(snap), m, pred, n, field, desc, patchIDs(got), patchIDs(want))
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

// FuzzSelectPathsAgree is the differential test over DB.Select: for a
// seeded append sequence and equality/range predicates on every field,
// the row scan, the column scan, the hash and B-tree probes and the
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
// reopened hash and B-tree indexes — returns the row scan's ids and
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
		behind, behindVer, _ := col.Snapshot()
		add(n, n+extra)
		snap, ver, _ := col.Snapshot()

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
		type view struct {
			snap []*Patch
			ver  uint64
		}
		views := []view{{behind, behindVer}, {snap, ver}}
		want := make([][][]PatchID, len(views))
		for v, vw := range views {
			for _, p := range preds {
				rows := selectIDs(t, db, col, vw.snap, vw.ver, p, FilterScan)
				want[v] = append(want[v], rows)
				methods := []FilterMethod{FilterColumnScan, FilterBTreeIndex}
				if !p.Range {
					methods = append(methods, FilterHashIndex)
				}
				for _, m := range methods {
					if got := selectIDs(t, db, col, vw.snap, vw.ver, p, m); !reflect.DeepEqual(got, rows) {
						t.Fatalf("%d/%d rows, %v %+v: %d ids, row scan %d", len(vw.snap), len(snap), m, p, len(got), len(rows))
					}
				}
				keepsAgree(t, db, col, vw.snap, vw.ver, p, FilterScan, keep)
				for _, m := range methods {
					keepsAgree(t, db, col, vw.snap, vw.ver, p, m, keep)
				}
			}
			keepsAgree(t, db, col, vw.snap, vw.ver, Pred{}, 0, keep)
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
		for v, vw := range views {
			for k, p := range preds {
				if got := selectIDs(t, db, col, vw.snap, vw.ver, p, FilterColumnScan); !reflect.DeepEqual(got, want[v][k]) {
					t.Fatalf("tiered %d/%d rows, %+v: %d ids, row scan %d", len(vw.snap), len(snap), p, len(got), len(want[v][k]))
				}
				keepsAgree(t, db, col, vw.snap, vw.ver, p, FilterColumnScan, keep)
			}
			keepsAgree(t, db, col, vw.snap, vw.ver, Pred{}, 0, keep)
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
		rsnap, rver, err := col.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(patchIDs(rsnap), patchIDs(snap)) {
			t.Fatalf("reopened %d rows: not the %d rows before the close, in order", len(rsnap), len(snap))
		}
		for k, p := range preds {
			rows := selectIDs(t, db, col, rsnap, rver, p, FilterScan)
			if !reflect.DeepEqual(rows, want[1][k]) {
				t.Fatalf("reopened %d rows, %+v: row scan %d ids, %d before the close", len(rsnap), p, len(rows), len(want[1][k]))
			}
			first := rows[:min(keep, len(rows))]
			methods := []FilterMethod{FilterColumnScan, FilterBTreeIndex}
			if !p.Range {
				methods = append(methods, FilterHashIndex)
			}
			for _, m := range methods {
				if got := selectIDs(t, db, col, rsnap, rver, p, m); !reflect.DeepEqual(got, rows) {
					t.Fatalf("reopened %d rows, %v %+v: %d ids, row scan %d", len(rsnap), m, p, len(got), len(rows))
				}
				if got := firstIDs(t, db, col, rsnap, rver, p, m, keep); !idsEqual(got, first) {
					t.Fatalf("reopened %d rows, %v %+v first %d: %v, row scan %v", len(rsnap), m, p, keep, got, first)
				}
			}
		}
	})
}
