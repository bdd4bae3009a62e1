package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/tensor"
)

// metaVal is p's value under name, the zero Value when p lacks it.
func metaVal(p *Patch, name string) Value {
	v, _ := p.Get(name)
	return v
}

func openDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "dl.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPatchMarshalRoundTrip(t *testing.T) {
	p := &Patch{
		ID:   42,
		Ref:  Ref{Source: "cam0", Frame: 17, Parent: 9},
		Data: tensor.FromU8([]uint8{1, 2, 3, 4, 5, 6}, 1, 2, 3),
		Meta: Metadata{
			"label": StrV("car"),
			"score": FloatV(0.83),
			"frame": IntV(-5),
			"hist":  VecV([]float32{0.1, 0.2, 0.3}),
			"bbox":  RectV(1, 2, 3, 4),
		},
	}
	got, err := UnmarshalPatch(p.ID, p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID || got.Ref != p.Ref {
		t.Fatalf("identity lost: %+v", got)
	}
	if !tensor.Equal(got.Data, p.Data) {
		t.Fatal("payload lost")
	}
	for k, v := range p.Meta {
		if !metaVal(got, k).Equal(v) {
			t.Fatalf("meta %q lost: %+v vs %+v", k, metaVal(got, k), v)
		}
	}
}

func TestPatchMarshalQuick(t *testing.T) {
	f := func(id uint64, frame uint64, src string, label string, score float64, iv int64) bool {
		p := &Patch{ID: PatchID(id), Ref: Ref{Source: src, Frame: frame},
			Meta: Metadata{"l": StrV(label), "s": FloatV(score), "i": IntV(iv)}}
		got, err := UnmarshalPatch(p.ID, p.Marshal())
		if err != nil {
			return false
		}
		return got.ID == p.ID && got.Ref.Source == src &&
			metaVal(got, "l").Equal(metaVal(p, "l")) && metaVal(got, "s").Equal(metaVal(p, "s")) &&
			metaVal(got, "i").Equal(metaVal(p, "i"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	p := &Patch{ID: 1, Meta: Metadata{"k": StrV("v")}}
	raw := p.Marshal()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := UnmarshalPatch(p.ID, raw[:cut]); err == nil {
			// Some prefixes parse as valid shorter patches only if all
			// fields complete; a cut mid-structure must error. Allow valid
			// prefix only if it equals a full encoding, which cannot
			// happen for proper prefixes of varint streams here.
			t.Fatalf("truncated patch at %d decoded", cut)
		}
	}
}

func TestSortKeyOrderPreserving(t *testing.T) {
	fInt := func(a, b int64) bool {
		ka, _ := IntV(a).SortKey()
		kb, _ := IntV(b).SortKey()
		return (a < b) == (string(ka) < string(kb))
	}
	if err := quick.Check(fInt, nil); err != nil {
		t.Fatalf("int sort keys: %v", err)
	}
	fFloat := func(a, b float64) bool {
		ka, _ := FloatV(a).SortKey()
		kb, _ := FloatV(b).SortKey()
		return (a < b) == (string(ka) < string(kb))
	}
	cfg := &quick.Config{MaxCount: 1000, Values: nil}
	if err := quick.Check(fFloat, cfg); err != nil {
		t.Fatalf("float sort keys: %v", err)
	}
	if _, err := VecV([]float32{1}).SortKey(); err == nil {
		t.Fatal("vec sort key allowed")
	}
}

func simpleSchema() Schema {
	return Schema{
		Data: Pixels(0, 0),
		Fields: []Field{
			{Name: "label", Kind: KindStr, Domain: []string{"car", "pedestrian", "player"}},
			{Name: "frameno", Kind: KindInt},
		},
	}
}

func mkPatch(label string, frame int64) *Patch {
	return &Patch{
		Ref:  Ref{Source: "cam", Frame: uint64(frame)},
		Meta: Metadata{"label": StrV(label), "frameno": IntV(frame)},
	}
}

func TestCollectionAppendScanPersist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dl.db")
	db, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("dets", simpleSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		label := "car"
		if i%3 == 0 {
			label = "pedestrian"
		}
		if err := col.Append(mkPatch(label, int64(i%50))); err != nil {
			t.Fatal(err)
		}
	}
	if col.Len() != 500 {
		t.Fatalf("Len = %d", col.Len())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	col2, err := db2.Collection("dets")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := col2.Patches()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 500 {
		t.Fatalf("reopen: %d patches", len(ps))
	}
	// Lineage attributes auto-populated.
	if metaVal(ps[0], "_source").Str() != "cam" {
		t.Fatalf("lineage attribute missing: %+v", ps[0])
	}
}

func TestSchemaValidation(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("dets", simpleSchema())
	// Out-of-domain label rejected.
	if err := col.Append(mkPatch("truck", 1)); err == nil {
		t.Fatal("out-of-domain label accepted")
	}
	// Missing declared field rejected.
	p := &Patch{Meta: Metadata{"label": StrV("car")}}
	if err := col.Append(p); err == nil {
		t.Fatal("missing field accepted")
	}
	// Wrong kind rejected.
	p2 := &Patch{Meta: Metadata{"label": IntV(3), "frameno": IntV(1)}}
	if err := col.Append(p2); err == nil {
		t.Fatal("wrong-kind field accepted")
	}
}

func TestFilterValidationRejectsImpossibleLabel(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("dets", simpleSchema())
	if _, err := db.PlanFilter(col, "label", StrV("car")); err != nil {
		t.Fatalf("valid filter rejected: %v", err)
	}
	if _, err := db.PlanFilter(col, "label", StrV("bicycle")); err == nil {
		t.Fatal("filter on impossible label accepted (type system should catch it)")
	}
	if _, err := db.PlanFilter(col, "nosuch", StrV("x")); err == nil {
		t.Fatal("filter on undeclared field accepted")
	}
}

func TestCreateDuplicateCollection(t *testing.T) {
	db := openDB(t)
	db.CreateCollection("c", simpleSchema())
	if _, err := db.CreateCollection("c", simpleSchema()); err == nil {
		t.Fatal("duplicate collection created")
	}
}

func TestSelectAndCount(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("dets", simpleSchema())
	for i := 0; i < 90; i++ {
		label := []string{"car", "pedestrian", "player"}[i%3]
		col.Append(mkPatch(label, int64(i)))
	}
	snap, err := col.Current()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []FilterMethod{FilterScan, FilterColumnScan} {
		for _, tc := range []struct {
			pred Pred
			want int
		}{
			{Pred{Field: "label", V: StrV("car")}, 30},
			{Pred{Field: "frameno", Range: true, Lo: 10, Hi: 20}, 10},
		} {
			s, err := snap.Select(context.Background(), tc.pred, m, Keep{Kind: KeepCount})
			if err != nil || s.N != tc.want || len(s.Sel) != 0 {
				t.Fatalf("%v %+v: count = %d (kept %d), %v; want %d", m, tc.pred, s.N, len(s.Sel), err, tc.want)
			}
		}
	}
}

func TestGroupCountAndOrderBy(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("dets", simpleSchema())
	for i := 0; i < 30; i++ {
		col.Append(mkPatch("car", int64(i%3)))
	}
	ps, _ := col.Patches()
	groups := GroupCount(ps, "frameno")
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	for _, g := range groups {
		if metaVal(g, "count").Int() != 10 {
			t.Fatalf("group count = %d", metaVal(g, "count").Int())
		}
	}
}

func TestHashAndBTreeIndexLookup(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("dets", simpleSchema())
	want := map[int64][]PatchID{}
	for i := 0; i < 3000; i++ {
		p := mkPatch("car", int64(i%25))
		col.Append(p)
		want[int64(i%25)] = append(want[int64(i%25)], p.ID)
	}
	snap, _ := col.Current()
	if _, err := db.BuildIndex(col, "frameno", IdxSorted); err != nil {
		t.Fatal(err)
	}
	for f, ids := range want {
		if got := selectIDs(t, snap, Pred{Field: "frameno", V: IntV(f)}, FilterIndex); !reflect.DeepEqual(got, ids) {
			t.Fatalf("lookup(%d): %d ids, want %d", f, len(got), len(ids))
		}
	}
	// Missing key.
	if got := selectIDs(t, snap, Pred{Field: "frameno", V: IntV(999)}, FilterIndex); len(got) != 0 {
		t.Fatalf("missing key: %v", got)
	}
}

func TestBTreeIndexRange(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("dets", simpleSchema())
	for i := 0; i < 2100; i++ {
		col.Append(mkPatch("car", int64(i%100)))
	}
	if _, err := db.BuildIndex(col, "frameno", IdxSorted); err != nil {
		t.Fatal(err)
	}
	snap, _ := col.Current()
	if ids := selectIDs(t, snap, Pred{Field: "frameno", Range: true, Lo: 20, Hi: 30}, FilterIndex); len(ids) != 210 {
		t.Fatalf("range: %d ids, want 210", len(ids))
	}
}

// TestIndexPersistsAcrossReopen: index declarations are part of the
// collection's descriptor, and the reopened collection's probes answer
// from its re-projected columns.
func TestIndexPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dl.db")
	db, _ := Open(path, exec.New(exec.CPU))
	col, _ := db.CreateCollection("dets", simpleSchema())
	for i := 0; i < 2100; i++ {
		col.Append(mkPatch("car", int64(i%10)))
	}
	if _, err := db.BuildIndex(col, "frameno", IdxSorted); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, _ := Open(path, exec.New(exec.CPU))
	defer db2.Close()
	col2, _ := db2.Collection("dets")
	snap, _ := col2.Current()
	if !db2.HasIndex(col2, "frameno") {
		t.Fatal("index declaration lost")
	}
	if ids := selectIDs(t, snap, Pred{Field: "frameno", V: IntV(3)}, FilterIndex); len(ids) != 210 {
		t.Fatalf("reopen lookup: %d ids, want 210", len(ids))
	}
}

func vecSchema(dim int) Schema {
	return Schema{
		Data: Pixels(0, 0),
		Fields: []Field{
			{Name: "emb", Kind: KindVec, VecDim: dim},
			{Name: "frameno", Kind: KindInt},
		},
	}
}

func mkVecPatch(rng *rand.Rand, dim int, frame int64) *Patch {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return &Patch{Ref: Ref{Source: "s", Frame: uint64(frame)},
		Meta: Metadata{"emb": VecV(v), "frameno": IntV(frame)}}
}

func TestSimilarityJoinMethodsAgree(t *testing.T) {
	db := openDB(t)
	const dim = 16
	col, _ := db.CreateCollection("vecs", vecSchema(dim))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		col.Append(mkVecPatch(rng, dim, int64(i)))
	}
	snap, _ := col.Current()
	ps := snap.Patches()
	opts := SimilarityJoinOpts{LeftField: "emb", RightField: "emb", Eps: 3.5, DedupUnordered: true}

	nested, err := SimilarityJoinNested(ps, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := SimilarityJoinBatched(db, ps, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	fly, err := SimilarityJoinOnTheFly(ps, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	vi, err := snap.VectorIndex("emb")
	if err != nil {
		t.Fatal(err)
	}
	indexed, _, err := SimilarityJoinVecIndexed(ps, vi, opts)
	if err != nil {
		t.Fatal(err)
	}
	nk := pairKeys(nested)
	if len(nk) == 0 {
		t.Fatal("no pairs at eps=3.5; test is vacuous")
	}
	for name, other := range map[string][]Tuple{"batched": batched, "onthefly": fly, "indexed": indexed} {
		if ok := pairKeys(other); !reflect.DeepEqual(ok, nk) {
			t.Fatalf("%s: %d pairs differ from nested's %d", name, len(ok), len(nk))
		}
	}
}

// pairKeys lists a join's pairs as sorted "left-right" id strings.
func pairKeys(ts []Tuple) []string {
	out := make([]string, len(ts))
	for i, tp := range ts {
		out[i] = fmt.Sprintf("%d-%d", tp[0].ID, tp[1].ID)
	}
	sort.Strings(out)
	return out
}

// TestSimilarityJoinVecIndexedOverSnapshotBehind: an exact index built
// over a snapshot joins against that snapshot's rows only, after
// near-duplicates of its rows are appended and a newer index is
// extended from it — for a self-join of the old rows and for probes
// from every current row alike.
func TestSimilarityJoinVecIndexedOverSnapshotBehind(t *testing.T) {
	db := openDB(t)
	const dim, n = 16, 300
	col, _ := db.CreateCollection("vecs", vecSchema(dim))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		if err := col.Append(mkVecPatch(rng, dim, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	old, err := col.Current()
	if err != nil {
		t.Fatal(err)
	}
	vi, err := old.VectorIndex("emb")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 { // a near-duplicate of every third row
		v := append([]float32(nil), metaVal(old.Row(i), "emb").Vec()...)
		v[0] += 0.01
		dup := &Patch{Ref: Ref{Source: "s", Frame: uint64(n + i)}, Meta: Metadata{"emb": VecV(v), "frameno": IntV(int64(n + i))}}
		if err := col.Append(dup); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := col.Current()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.VectorIndex("emb"); err != nil { // extends the cached index
		t.Fatal(err)
	}
	if db.RefreshStats().VectorExtends != 1 || vi.Len() != n {
		t.Fatalf("extends %d, old index over %d rows, want 1 and %d", db.RefreshStats().VectorExtends, vi.Len(), n)
	}
	for _, tc := range []struct {
		left []*Patch
		opts SimilarityJoinOpts
	}{
		{old.Patches(), SimilarityJoinOpts{LeftField: "emb", RightField: "emb", Eps: 3.5, DedupUnordered: true}},
		{cur.Patches(), SimilarityJoinOpts{LeftField: "emb", RightField: "emb", Eps: 0.05, ExcludeSelf: true}},
	} {
		want, err := SimilarityJoinNested(tc.left, old.Patches(), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := SimilarityJoinVecIndexed(tc.left, vi, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%d left rows at eps=%g: no pairs, test is vacuous", len(tc.left), tc.opts.Eps)
		}
		if g, w := pairKeys(got), pairKeys(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%d left rows at eps=%g: %d indexed pairs, nested over the old rows %d", len(tc.left), tc.opts.Eps, len(g), len(w))
		}
	}
}

func TestRangeThetaJoinSortedAgreesWithNested(t *testing.T) {
	db := openDB(t)
	sch := Schema{Fields: []Field{{Name: "depth", Kind: KindFloat}}}
	col, _ := db.CreateCollection("d", sch)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		col.Append(&Patch{Ref: Ref{Source: "s", Frame: uint64(i)},
			Meta: Metadata{"depth": FloatV(rng.Float64() * 10)}})
	}
	ps, _ := col.Patches()
	const gap = 1.0
	sorted, err := RangeThetaJoinSorted(ps, ps, "depth", gap)
	if err != nil {
		t.Fatal(err)
	}
	nested := 0
	for _, a := range ps {
		for _, b := range ps {
			if a.ID != b.ID && metaVal(a, "depth").Float() > metaVal(b, "depth").Float()+gap {
				nested++
			}
		}
	}
	if len(sorted) != nested {
		t.Fatalf("sorted %d pairs, nested %d", len(sorted), nested)
	}
}

func TestDistinctClusters(t *testing.T) {
	// Three identities, several observations each; pairs connect
	// same-identity observations.
	var patches []*Patch
	var pairs []Tuple
	id := PatchID(1)
	for ident := 0; ident < 3; ident++ {
		var group []*Patch
		for obs := 0; obs < 4; obs++ {
			p := &Patch{ID: id}
			id++
			group = append(group, p)
			patches = append(patches, p)
		}
		for i := 0; i < len(group)-1; i++ {
			pairs = append(pairs, Tuple{group[i], group[i+1]})
		}
	}
	reps := DistinctClusters(patches, pairs)
	if len(reps) != 3 {
		t.Fatalf("distinct = %d, want 3", len(reps))
	}
	// No pairs: everything distinct.
	if got := DistinctClusters(patches, nil); len(got) != len(patches) {
		t.Fatalf("no-pair distinct = %d", len(got))
	}
}

// TestClustersFirstAppearanceOrder: clusters come in the order of their
// first member and keep members in input order; pairs reaching outside
// the set join nothing.
func TestClustersFirstAppearanceOrder(t *testing.T) {
	p := make([]*Patch, 7)
	for i := range p {
		p[i] = &Patch{ID: PatchID(10 - i)} // IDs descend: order is by position, not ID
	}
	outside := &Patch{ID: 99}
	pairs := []Tuple{
		{p[4], p[1]},
		{p[2], p[5]},
		{p[5], p[0]},
		{p[3], outside}, // endpoint outside the set
		{p[6], outside},
	}
	got := Clusters(p, pairs)
	want := [][]*Patch{{p[0], p[2], p[5]}, {p[1], p[4]}, {p[3]}, {p[6]}}
	if len(got) != len(want) {
		t.Fatalf("%d clusters, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("cluster %d has %d members, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("cluster %d member %d = patch %d, want %d", i, j, got[i][j].ID, want[i][j].ID)
			}
		}
	}
	if reps := DistinctClusters(p, pairs); len(reps) != 4 || reps[1] != p[1] {
		t.Fatalf("representatives %v, want the first member of each cluster", reps)
	}
}

// lineageDB is what TestBacktrace drives on both an unsharded DB and a
// sharded set.
type lineageDB interface {
	Collections() []string
	GetPatch(PatchID) (*Patch, error)
	Backtrace(*Patch) ([]*Patch, error)
	DropCollection(string) error
	Close() error
}

// openLineageDB opens a DB at n == 1 and a sharded set otherwise,
// returning the stores the rows land in and a collection constructor.
func openLineageDB(t *testing.T, dir string, n int) (lineageDB, []*DB, func(string) (func(*Patch) error, error)) {
	t.Helper()
	if n == 1 {
		db, err := Open(filepath.Join(dir, "dl.db"), exec.New(exec.CPU))
		if err != nil {
			t.Fatal(err)
		}
		return db, []*DB{db}, func(name string) (func(*Patch) error, error) {
			c, err := db.CreateCollection(name, Schema{})
			if err != nil {
				return nil, err
			}
			return c.Append, nil
		}
	}
	s, err := OpenSharded(dir, n, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*DB, s.NumShards())
	for i := range dbs {
		dbs[i] = s.Shard(i)
	}
	return s, dbs, func(name string) (func(*Patch) error, error) {
		c, err := s.CreateCollection(name, Schema{})
		if err != nil {
			return nil, err
		}
		return c.Append, nil
	}
}

// TestBacktrace builds a three-level lineage chain across three
// collections and resolves it through the collections alone: every row
// is stored once, the chain survives a reopen with cold caches, and a
// dropped middle collection breaks it with ErrNotFound.
func TestBacktrace(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			db, stores, create := openLineageDB(t, dir, n)
			// Created out of name order; a few unrelated rows per level
			// spread the chain's ids over the shards.
			var chainIDs []PatchID
			var parent PatchID
			for _, name := range []string{"frames", "dets", "ocr"} {
				appendTo, err := create(name)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					p := &Patch{Ref: Ref{Source: "video0", Frame: uint64(7 + i)}}
					if i == 0 {
						p.Ref.Parent = parent
					}
					if err := appendTo(p); err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						chainIDs = append(chainIDs, p.ID)
						parent = p.ID
					}
				}
			}
			wantNames := []string{"dets", "frames", "ocr"}
			checkNames := func(when string) {
				if got := db.Collections(); fmt.Sprint(got) != fmt.Sprint(wantNames) {
					t.Fatalf("%s: Collections() = %v, want %v", when, got, wantNames)
				}
			}
			checkNames("before reopen")
			for _, st := range stores {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				assertCatalogAndLogs(t, st, 3) // rows are in row logs; no lineage side table
			}
			// leaf resolves the chain's last patch and backtraces it.
			leaf := func() []*Patch {
				p, err := db.GetPatch(chainIDs[2])
				if err != nil {
					t.Fatal(err)
				}
				chain, err := db.Backtrace(p)
				if err != nil {
					t.Fatal(err)
				}
				return chain
			}
			want := leaf()
			if len(want) != 2 || want[0].ID != chainIDs[1] || want[1].ID != chainIDs[0] {
				t.Fatalf("chain %v, want ids %v then %v", want, chainIDs[1], chainIDs[0])
			}
			if want[1].Ref.Parent != 0 || want[1].Ref.Frame != 7 {
				t.Fatal("chain does not end at base")
			}

			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, _, _ = openLineageDB(t, dir, n)
			defer db.Close()
			checkNames("after reopen")
			got := leaf()
			if len(got) != len(want) {
				t.Fatalf("reopened chain length %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Ref != want[i].Ref {
					t.Fatalf("reopened chain[%d] = %+v, want %+v", i, got[i].Ref, want[i].Ref)
				}
			}

			if err := db.DropCollection("dets"); err != nil {
				t.Fatal(err)
			}
			p, err := db.GetPatch(chainIDs[2])
			if err != nil {
				t.Fatal(err)
			}
			if chain, err := db.Backtrace(p); !errors.Is(err, ErrNotFound) || len(chain) != 0 {
				t.Fatalf("Backtrace past a dropped collection = %d patches, %v; want ErrNotFound", len(chain), err)
			}
		})
	}
}

func TestOptimizerFilterPath(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("dets", simpleSchema())
	for i := 0; i < 50; i++ {
		col.Append(mkPatch("car", int64(i)))
	}
	m, err := db.PlanFilter(col, "label", StrV("car"))
	if err != nil || m != FilterColumnScan {
		t.Fatalf("no-index plan = %v, %v", m, err)
	}
	db.BuildIndex(col, "label", IdxSorted)
	m, _ = db.PlanFilter(col, "label", StrV("car"))
	if m != FilterIndex {
		t.Fatalf("index available but plan = %v", m)
	}
	// Execution agreement across every physical method.
	scan, _ := db.ExecuteFilter(col, "label", StrV("car"), FilterScan)
	columnar, _ := db.ExecuteFilter(col, "label", StrV("car"), FilterColumnScan)
	indexed, _ := db.ExecuteFilter(col, "label", StrV("car"), FilterIndex)
	if len(scan) != len(indexed) || len(scan) != len(columnar) || len(scan) != 50 {
		t.Fatalf("scan %d vs columnar %d vs indexed %d", len(scan), len(columnar), len(indexed))
	}
}

// TestFilterCostStatic: selection costs are the static per-row and
// per-fetch constants — deterministic functions of the plan and the
// snapshot, so replicas quote byte-identical est_cost_sec.
func TestFilterCostStatic(t *testing.T) {
	for _, tc := range []struct {
		m    FilterMethod
		want float64
	}{
		{FilterColumnScan, 1000 * CColScanSec},
		{FilterScan, 1000 * CRowScanSec},
		{FilterIndex, 10 * fetchSec},
	} {
		if got := FilterCost(tc.m, 1000, 10); math.Abs(got-tc.want) > 1e-15 {
			t.Fatalf("%v cost = %g, want %g", tc.m, got, tc.want)
		}
	}
}

// TestPlanFilterStaticOrder: the planner's preference order is fixed —
// a declared index, then the columnar scan for scalar constants, then
// the row scan.
func TestPlanFilterStaticOrder(t *testing.T) {
	db := openDB(t)
	col, err := db.CreateCollection("dets", Schema{Fields: []Field{{Name: "label", Kind: KindStr}, {Name: "emb", Kind: KindVec}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := col.Append(&Patch{Ref: Ref{Source: "cam", Frame: uint64(i)},
			Meta: Metadata{"label": StrV("car"), "emb": VecV([]float32{float32(i)})}}); err != nil {
			t.Fatal(err)
		}
	}
	plan := func(field string, v Value) FilterMethod {
		t.Helper()
		m, err := db.PlanFilter(col, field, v)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := plan("emb", VecV([]float32{1})); m != FilterScan {
		t.Fatalf("vector constant plan = %v, want scan-filter", m)
	}
	if m := plan("label", StrV("car")); m != FilterColumnScan {
		t.Fatalf("no-index plan = %v, want column-scan", m)
	}
	if _, err := db.BuildIndex(col, "label", IdxSorted); err != nil {
		t.Fatal(err)
	}
	if m := plan("label", StrV("car")); m != FilterIndex {
		t.Fatalf("indexed plan = %v, want sorted-segments", m)
	}
}

// TestIndexNotFound: an index never built is not declared, and one
// over a field with no column cannot be built.
func TestIndexNotFound(t *testing.T) {
	db := openDB(t)
	col, _ := db.CreateCollection("c", simpleSchema())
	if db.HasIndex(col, "label") {
		t.Fatal("an index never built is declared")
	}
	if _, err := db.BuildIndex(col, "undeclared", IdxSorted); err == nil || db.HasIndex(col, "undeclared") {
		t.Fatalf("index over a field with no column: %v", err)
	}
}
