package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/balltree"
	"repro/internal/exec"
)

// Vector-index contract tests: the index byte-identical to the brute
// scan (tie boundaries and extended-tail states included), and the
// maintenance counters distinguishing extensions by appended rows from
// rebuilds.

// vecStats is db's vector-index maintenance record: extends, rebuilds.
func vecStats(db *DB) (extends, rebuilds int64) {
	rs := db.RefreshStats()
	return rs.VectorExtends, rs.VectorRebuilds
}

// vecTestPatch generates row i of a clustered vector fixture: i%clusters
// picks a well-separated center, a tiny deterministic jitter spreads the
// members, and a few rows per cluster repeat exactly (distance ties).
func vecTestPatch(i, dim, clusters int) *Patch {
	v := make([]float32, dim)
	c := i % clusters
	for d := range v {
		v[d] = float32((c*31+d*17)%101)/101.0*10 + float32(((i/clusters)%5)*((d*13)%7))*0.003
	}
	return &Patch{
		Ref:  Ref{Source: "vecfix", Frame: uint64(i)},
		Meta: Metadata{"emb": VecV(v)},
	}
}

func vecTestCollection(t *testing.T, rows, dim, clusters int) (*DB, *Collection) {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "vec.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	col, err := db.CreateCollection("vec.fix", Schema{
		Data:   Pixels(0, 0),
		Fields: []Field{{Name: "emb", Kind: KindVec, VecDim: dim}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := col.Append(vecTestPatch(i, dim, clusters)); err != nil {
			t.Fatal(err)
		}
	}
	return db, col
}

func vecTestQuery(qi, dim, clusters int) []float32 {
	q := vecTestPatch(qi*7+3, dim, clusters).Meta["emb"].Vec()
	out := append([]float32(nil), q...)
	out[0] += 0.001 // off-grid: the query is near, not on, a stored point
	return out
}

func neighborsEqual(a, b []VecNeighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// TestVectorIndexExactMatchesBrute: exact mode is the brute scan, byte
// for byte, across k values, tie-heavy data, and every maintenance
// state (fresh build, linear tail after appends, re-treed).
func TestVectorIndexExactMatchesBrute(t *testing.T) {
	const dim, clusters = 8, 7
	_, col := vecTestCollection(t, 500, dim, clusters)
	check := func(stage string) {
		t.Helper()
		snap, err := col.Current()
		if err != nil {
			t.Fatal(err)
		}
		vi, err := snap.VectorIndex("emb")
		if err != nil {
			t.Fatal(err)
		}
		if vi.at.version != snap.version || vi.Len() != snap.Len() {
			t.Fatalf("%s: index at version %d/%d rows, snapshot %d/%d",
				stage, vi.at.version, vi.Len(), snap.version, snap.Len())
		}
		for qi := 0; qi < 12; qi++ {
			q := vecTestQuery(qi, dim, clusters)
			for _, k := range []int{1, 3, 10, 25, snap.Len() + 5} {
				got := vi.KNN(q, k)
				want := BruteKNN(snap.Patches(), "emb", q, k)
				if !neighborsEqual(got, want) {
					t.Fatalf("%s: q%d k=%d: index %v != brute %v", stage, qi, k, got, want)
				}
			}
		}
	}
	check("fresh build")
	// A small append keeps the extension in the linear tail.
	for i := 500; i < 560; i++ {
		if err := col.Append(vecTestPatch(i, dim, clusters)); err != nil {
			t.Fatal(err)
		}
	}
	check("extended tail")
	// A large append forces the tail past its bound and re-trees.
	for i := 560; i < 1200; i++ {
		if err := col.Append(vecTestPatch(i, dim, clusters)); err != nil {
			t.Fatal(err)
		}
	}
	check("re-treed")
	if k0 := (&VectorIndex{}).KNN(vecTestQuery(0, dim, clusters), 0); k0 != nil {
		t.Fatalf("k=0 returned %v", k0)
	}
}

// vecTestRows numbers rows [from, to) of the clustered fixture with ids
// starting at idBase, so two sibling suffixes can hold different rows.
func vecTestRows(from, to, idBase, dim, clusters int) []*Patch {
	ps := make([]*Patch, 0, to-from)
	for i := from; i < to; i++ {
		p := vecTestPatch(i, dim, clusters)
		p.ID = PatchID(idBase + i)
		ps = append(ps, p)
	}
	return ps
}

// TestVectorIndexSiblingExtendsStayExact: extensions raced off one index
// — two appending to the tail, one re-treeing — and a further extension
// of each leave every index, the receiver included, equal to the brute
// scan over its own snapshot. Siblings share the receiver's tree and
// rows; a re-tree partitioning anything they read would corrupt them.
func TestVectorIndexSiblingExtendsStayExact(t *testing.T) {
	const dim, clusters, base = 8, 7, 600
	for round := 0; round < 4; round++ {
		snap0 := vecTestRows(0, base, 1, dim, clusters)
		vi0, err := NewVectorIndex(snapshotOf(snap0, 1), "emb")
		if err != nil {
			t.Fatal(err)
		}
		// Sibling suffixes hold different rows: tail appends of 40 and 55
		// rows, and a 300-row append past the tail bound.
		snaps := [][]*Patch{
			append(snap0[:base:base], vecTestRows(base, base+40, 10_000, dim, clusters)...),
			append(snap0[:base:base], vecTestRows(base+round+1, base+round+56, 15_000, dim, clusters)...),
			append(snap0[:base:base], vecTestRows(base+round, base+round+300, 20_000, dim, clusters)...),
		}
		ext := make([]*VectorIndex, len(snaps))
		var wg sync.WaitGroup
		for s := range snaps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				vi, err := vi0.Extend(snapshotOf(snaps[s], uint64(2+s)))
				if err != nil {
					t.Error(err)
					return
				}
				// And once more off the sibling itself.
				next := append(snaps[s][:len(snaps[s]):len(snaps[s])], vecTestRows(0, 25, 30_000+s*1000, dim, clusters)...)
				if _, err := vi.Extend(snapshotOf(next, uint64(4+s))); err != nil {
					t.Error(err)
				}
				ext[s] = vi
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if ext[0].ball.Len() != base || ext[1].ball.Len() != base || ext[2].ball.Len() != len(snaps[2]) {
			t.Fatalf("tree sizes %d, %d, %d: want two tail appends and a re-tree", ext[0].ball.Len(), ext[1].ball.Len(), ext[2].ball.Len())
		}
		for s, c := range []struct {
			vi   *VectorIndex
			snap []*Patch
		}{{vi0, snap0}, {ext[0], snaps[0]}, {ext[1], snaps[1]}, {ext[2], snaps[2]}} {
			for qi := 0; qi < 8; qi++ {
				q := vecTestQuery(qi, dim, clusters)
				for _, k := range []int{1, 10, 60} {
					if got, want := c.vi.KNN(q, k), BruteKNN(c.snap, "emb", q, k); !neighborsEqual(got, want) {
						t.Fatalf("round %d index %d q%d k=%d: %v, brute %v", round, s, qi, k, got, want)
					}
				}
			}
		}
	}
}

// vecIndexHeader is what allocating one VectorIndex costs: its size
// rounded up to the allocator's size class, a multiple of 16 B between
// 32 and 128 B.
var vecIndexHeader = (uint64(unsafe.Sizeof(VectorIndex{})) + 15) &^ 15

// TestVectorIndexExtendAllocatesOnlyAppended: extending a 12k-point
// exact index by 64 rows allocates the new index header and nothing
// else: no copy of the 12k points (384 KiB), nor of the 64 added ones.
// The median extension is what is bounded.
func TestVectorIndexExtendAllocatesOnlyAppended(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const dim, clusters, base, step, steps = 8, 7, 12_000, 64, 32
	ps := vecTestRows(0, base+step*steps, 1, dim, clusters)
	all := snapshotOf(ps, 1)
	vi, err := NewVectorIndex(cut(all, base, 1), "emb")
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	med := allocBytes(steps, func() {
		i++
		if vi, err = vi.Extend(cut(all, base+step*i, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	})
	if vi.ball.Len() != base {
		t.Fatalf("extensions re-treed (tree %d): the test measures tail appends", vi.ball.Len())
	}
	t.Logf("median extension: %d B (bound %d)", med, vecIndexHeader)
	if med > vecIndexHeader {
		t.Fatalf("a 64-row extension of a %d-point index allocates %d B (median), want <= %d", base, med, vecIndexHeader)
	}
}

// allocBytes returns the median bytes runs calls of fn allocate.
func allocBytes(runs int, fn func()) uint64 {
	per := make([]uint64, runs)
	var a, b runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		per[i] = b.TotalAlloc - a.TotalAlloc
	}
	slices.Sort(per)
	return per[runs/2]
}

// TestVectorIndexExtendAllocsIndependentOfTail: a 64-row extension of an
// index with a 64-point tail and of one with a 2,000-point tail, both
// over a 12k-point tree, allocate the same bytes: one index header. The
// tail is read from the rows, so neither copies it. Each receiver is
// extended repeatedly, as sibling extensions of one index are.
func TestVectorIndexExtendAllocsIndependentOfTail(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const dim, clusters, base, step, long = 8, 7, 12_000, 64, 2_000
	ps := vecTestRows(0, base+long+step, 1, dim, clusters)
	all := snapshotOf(ps, 1)
	vi0, err := NewVectorIndex(cut(all, base, 1), "emb")
	if err != nil {
		t.Fatal(err)
	}
	var got [2]uint64
	for i, tail := range []int{step, long} {
		vi, err := vi0.Extend(cut(all, base+tail, 2))
		if err != nil {
			t.Fatal(err)
		}
		at := cut(all, base+tail+step, 3)
		got[i] = allocBytes(16, func() {
			nx, err := vi.Extend(at)
			if err != nil || nx.ball != vi0.ball || nx.tailN != tail+step {
				t.Fatalf("%d-point tail: extension re-treed or failed (%v)", tail, err)
			}
		})
	}
	t.Logf("64-row extension: %d B over a %d-point tail, %d B over a %d-point tail", got[0], step, got[1], long)
	if got[0] != got[1] || got[1] > vecIndexHeader {
		t.Fatalf("64-row extension allocates %d B over a %d-point tail and %d B over a %d-point tail, want the same, <= %d",
			got[0], step, got[1], long, vecIndexHeader)
	}
}

// TestVectorIndexBuildAllocsOnePointArray: building an index over 12k
// points allocates one point array, which the tree partitions and
// keeps, and the tree's balls: no second copy of the points (384 KiB).
func TestVectorIndexBuildAllocsOnePointArray(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const dim, clusters, n = 8, 7, 12_000
	at := snapshotOf(vecTestRows(0, n, 1, dim, clusters), 1)
	var vi *VectorIndex
	got := allocBytes(5, func() {
		var err error
		if vi, err = NewVectorIndex(at, "emb"); err != nil {
			t.Fatal(err)
		}
	})
	// The array takes whole 8 KiB pages; a ball is its node (72 B, in an
	// 80 B size class) and its centre; 1 KiB covers the two headers.
	array := (uint64(n)*uint64(unsafe.Sizeof(balltree.Point{})) + 8191) &^ 8191
	bound := array + uint64(vi.ball.Nodes())*(80+4*dim) + 1<<10
	t.Logf("index over %d points: %d B (bound %d)", n, got, bound)
	if got > bound {
		t.Fatalf("index over %d points allocates %d B, want <= %d: one point array and %d balls", n, got, bound, vi.ball.Nodes())
	}
}

// TestVectorIndexMaintenanceCounters: version-stable reuse costs
// nothing, appends extend, first touches rebuild, and a reader behind
// the cached index builds a private one without evicting it.
func TestVectorIndexMaintenanceCounters(t *testing.T) {
	const dim, clusters = 8, 7
	db, col := vecTestCollection(t, 100, dim, clusters)
	at := func() (*VectorIndex, Snapshot) {
		t.Helper()
		snap, err := col.Current()
		if err != nil {
			t.Fatal(err)
		}
		vi, err := snap.VectorIndex("emb")
		if err != nil {
			t.Fatal(err)
		}
		return vi, snap
	}
	e0, r0 := vecStats(db)

	vi1, snap1 := at() // first touch: full build
	if e, r := vecStats(db); e != e0 || r != r0+1 {
		t.Fatalf("first touch: extends %d rebuilds %d, want %d/%d", e, r, e0, r0+1)
	}
	vi2, _ := at() // same version: cache hit, no counter movement
	if vi2 != vi1 {
		t.Fatal("version-stable lookup did not return the cached index")
	}
	if e, r := vecStats(db); e != e0 || r != r0+1 {
		t.Fatalf("cache hit moved counters: extends %d rebuilds %d", e, r)
	}

	for i := 100; i < 130; i++ {
		if err := col.Append(vecTestPatch(i, dim, clusters)); err != nil {
			t.Fatal(err)
		}
	}
	vi3, snap3 := at() // append: incremental extension
	if e, r := vecStats(db); e != e0+1 || r != r0+1 {
		t.Fatalf("append: extends %d rebuilds %d, want %d/%d", e, r, e0+1, r0+1)
	}
	if vi3.Len() != snap3.Len() {
		t.Fatalf("extended index covers %d of %d rows", vi3.Len(), snap3.Len())
	}

	behind, err := snap1.VectorIndex("emb") // reader behind: private build
	if err != nil {
		t.Fatal(err)
	}
	if e, r := vecStats(db); e != e0+1 || r != r0+2 || behind.Len() != snap1.Len() {
		t.Fatalf("reader behind: extends %d rebuilds %d over %d rows, want %d/%d over %d",
			e, r, behind.Len(), e0+1, r0+2, snap1.Len())
	}
	if vi4, _ := at(); vi4 != vi3 {
		t.Fatal("a reader behind evicted the cached index")
	}

}

// scanRange is the reference RangeSearch answer: every row of snap whose
// vector lies within eps of q by the all-pairs join's test (squared
// distance against eps²), with its VecDist distance, ascending id.
func scanRange(snap []*Patch, q []float32, eps float64) []VecNeighbor {
	var out []VecNeighbor
	for _, p := range snap {
		v := metaVal(p, "emb").Vec()
		var s float64
		for i := range v {
			d := float64(v[i]) - float64(q[i])
			s += d * d
		}
		if s <= eps*eps {
			out = append(out, VecNeighbor{ID: p.ID, Dist: VecDist(v, q)})
		}
	}
	return out
}

// rangeAll collects a RangeSearch answer in ascending id order.
func rangeAll(vi *VectorIndex, q []float32, eps float64) []VecNeighbor {
	var out []VecNeighbor
	vi.RangeSearch(q, eps, func(id PatchID, d float64) bool {
		out = append(out, VecNeighbor{ID: id, Dist: d})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestVectorIndexRangeSearchMatchesScan: exact mode's RangeSearch is the
// scan — same rows, bit-identical distances, boundary rows at exactly
// eps included — at every maintenance state (fresh build, linear tail
// after an append, re-treed), and a visitor returning false stops the
// walk on the spot, in the tree and in the tail alike.
func TestVectorIndexRangeSearchMatchesScan(t *testing.T) {
	const dim, clusters = 8, 7
	_, col := vecTestCollection(t, 500, dim, clusters)
	check := func(stage string, wantTail bool) {
		t.Helper()
		snap, err := col.Current()
		if err != nil {
			t.Fatal(err)
		}
		vi, err := snap.VectorIndex("emb")
		if err != nil {
			t.Fatal(err)
		}
		if tail := vi.tailN; (tail > 0) != wantTail || vi.Len() != snap.Len() {
			t.Fatalf("%s: %d rows with a %d-row tail, snapshot %d", stage, vi.Len(), tail, snap.Len())
		}
		for qi := 0; qi < 12; qi++ {
			q := vecTestQuery(qi, dim, clusters)
			epss := []float64{0, 0.01, 0.5, 4}
			for _, n := range BruteKNN(snap.Patches(), "emb", q, 200) {
				epss = append(epss, n.Dist) // boundary: a row at exactly eps
			}
			for _, eps := range epss {
				got, want := rangeAll(vi, q, eps), scanRange(snap.Patches(), q, eps)
				if len(got) != len(want) {
					t.Fatalf("%s: q%d eps=%g: %d rows, scan %d", stage, qi, eps, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("%s: q%d eps=%g: row %d is %v, scan %v", stage, qi, eps, i, got[i], want[i])
					}
				}
			}
		}
		// The count is the tree's evaluations plus one per tail row.
		q := vecTestQuery(0, dim, clusters)
		all := func(PatchID, float64) bool { return true }
		treeEvals := 0
		if vi.ball != nil {
			treeEvals = vi.ball.RangeSearch(q, 4, func(balltree.Point, float64) bool { return true })
		}
		if evals, tail := vi.RangeSearch(q, 4, all), vi.tailN; evals != treeEvals+tail {
			t.Fatalf("%s: RangeSearch evaluated %d distances, tree %d + tail %d", stage, evals, treeEvals, tail)
		}
		// Early stop: every prefix of the walk, across the tree/tail seam.
		n := len(scanRange(snap.Patches(), q, 4))
		if n < 2 {
			t.Fatalf("%s: vacuous early-stop check (%d rows)", stage, n)
		}
		for stop := 1; stop <= n; stop++ {
			calls := 0
			vi.RangeSearch(q, 4, func(PatchID, float64) bool {
				calls++
				return calls < stop
			})
			if calls != stop {
				t.Fatalf("%s: visitor stopped at call %d, walk made %d calls", stage, stop, calls)
			}
		}
	}
	check("fresh build", false)
	for i := 500; i < 560; i++ {
		if err := col.Append(vecTestPatch(i, dim, clusters)); err != nil {
			t.Fatal(err)
		}
	}
	check("extended tail", true)
	for i := 560; i < 1200; i++ {
		if err := col.Append(vecTestPatch(i, dim, clusters)); err != nil {
			t.Fatal(err)
		}
	}
	check("re-treed", false)
}

// sortedKNN is the fuzz reference, independent of the keeper that exact
// probes and BruteKNN share: every row's distance, all of them sorted by
// (distance, id), trimmed to k.
func sortedKNN(ps []*Patch, q []float32, k int) []VecNeighbor {
	var all []VecNeighbor
	for _, p := range ps {
		if v, ok := p.Get("emb"); ok && len(v.Vec()) == len(q) {
			all = append(all, VecNeighbor{ID: p.ID, Dist: VecDist(v.Vec(), q)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	return all[:min(k, len(all))]
}

// FuzzVectorIndexKNNMatchesSort: on small-integer coordinates, where
// ties are the rule and span 1 makes every vector identical (a forced
// leaf of equal points), exact KNN and BruteKNN both return the fully
// sorted reference's first k, for k from 1 to past the row count and
// for every split of the rows between the ball tree and the appended
// tail (an extension past the tail bound re-trees). Ids are shuffled
// against row order, and some rows lack the field.
func FuzzVectorIndexKNNMatchesSort(f *testing.F) {
	f.Add(int64(1), uint16(120), uint16(80), uint8(3), uint8(2), uint8(5))
	f.Add(int64(2), uint16(300), uint16(0), uint8(1), uint8(0), uint8(9))   // all identical, tail only
	f.Add(int64(3), uint16(40), uint16(40), uint8(7), uint8(3), uint8(200)) // k past n, tree only
	f.Fuzz(func(t *testing.T, seed int64, rows, treed uint16, dimB, spanB, kB uint8) {
		n := int(rows % 700)
		split := int(treed) % (n + 1)
		dim, span := 1+int(dimB%8), 1+int(spanB%4)
		r := rand.New(rand.NewSource(seed))
		vec := func() []float32 {
			v := make([]float32, dim)
			for d := range v {
				v[d] = float32(r.Intn(span))
			}
			return v
		}
		ids := r.Perm(n)
		ps := make([]*Patch, n)
		for i := range ps {
			p := &Patch{ID: PatchID(ids[i] + 1), Meta: Metadata{}}
			if r.Intn(8) != 0 {
				p.Meta["emb"] = VecV(vec())
			}
			ps[i] = p
		}
		vi, err := NewVectorIndex(snapshotOf(ps[:split], 1), "emb")
		if err != nil {
			t.Fatal(err)
		}
		if vi, err = vi.Extend(snapshotOf(ps, 2)); err != nil {
			if vi, err = NewVectorIndex(snapshotOf(ps, 2), "emb"); err != nil { // the tree held no vector
				t.Fatal(err)
			}
		}
		for qi := 0; qi < 4; qi++ {
			q := vec()
			k := 1 + (int(kB)+qi*7)%(n+4)
			want := sortedKNN(ps, q, k)
			if got := vi.KNN(q, k); !neighborsEqual(got, want) {
				t.Fatalf("n=%d tree=%d k=%d: KNN %v, want %v", n, vi.ball.Len(), k, got, want)
			}
			if got := BruteKNN(ps, "emb", q, k); !neighborsEqual(got, want) {
				t.Fatalf("n=%d k=%d: BruteKNN %v, want %v", n, k, got, want)
			}
		}
	})
}

// TestKNNDistanceEvalsCounted: on the benchmark's uniform 32-d shape,
// one exact probe over n tree points and t tail points adds at most
// n + t + (ball count) to the index counter, and a brute probe adds
// exactly the rows carrying the field to the scan counter.
func TestKNNDistanceEvalsCounted(t *testing.T) {
	const dim, n, tail = 32, 3000, 200
	db, err := Open(filepath.Join(t.TempDir(), "evals.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// emb is left undeclared, so a row may lack it.
	col, err := db.CreateCollection("uniform", Schema{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	uniform := func() []float32 {
		v := make([]float32, dim)
		for d := range v {
			v[d] = r.Float32()
		}
		return v
	}
	carrying := 0
	add := func(rows int) {
		for i := 0; i < rows; i++ {
			p := &Patch{Meta: Metadata{}}
			if i%10 != 9 {
				p.Meta["emb"] = VecV(uniform())
				carrying++
			}
			if err := col.Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe := func() *VectorIndex {
		snap, err := col.Current()
		if err != nil {
			t.Fatal(err)
		}
		vi, err := snap.VectorIndex("emb")
		if err != nil {
			t.Fatal(err)
		}
		return vi
	}
	add(n * 10 / 9)
	probe()
	add(tail * 10 / 9)
	vi := probe()
	if vi.ball.Len() != n || vi.tailN != tail {
		t.Fatalf("index holds %d tree + %d tail points, want %d + %d", vi.ball.Len(), vi.tailN, n, tail)
	}
	for _, k := range []int{1, 10, 100} {
		q := uniform()
		rs0 := db.RefreshStats()
		vi.KNN(q, k)
		rs1 := db.RefreshStats()
		index := rs1.KNNIndexEvals - rs0.KNNIndexEvals
		if limit := int64(n + tail + vi.ball.Nodes()); index > limit || index < tail {
			t.Fatalf("k=%d: exact probe added %d evaluations, want within [%d, %d]", k, index, tail, limit)
		}
		if rs1.KNNScanEvals != rs0.KNNScanEvals {
			t.Fatalf("k=%d: exact probe moved the scan counter by %d", k, rs1.KNNScanEvals-rs0.KNNScanEvals)
		}
		snap, _ := col.Current()
		snap.ScanKNN("emb", q, k)
		if scan := db.RefreshStats().KNNScanEvals - rs1.KNNScanEvals; scan != int64(carrying) {
			t.Fatalf("k=%d: brute probe added %d evaluations, want %d (rows carrying emb)", k, scan, carrying)
		}
	}
}
