package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/exec"
)

// Commit-order tests: a patch gets its id at commit, so every collection
// holds its rows in ascending id order — in the row cache, the bucket,
// every index and after a reopen — and a commit that would break that
// order is refused.

// firstIDs runs one selection with a first-n consumer over snap and
// materializes the rows it kept, as the serving layer does.
func firstIDs(t *testing.T, snap Snapshot, pred Pred, m FilterMethod, n int) []PatchID {
	t.Helper()
	s, err := snap.Select(context.Background(), pred, m, Keep{Kind: KeepFirst, N: n})
	if err != nil {
		t.Fatalf("%v %+v: %v", m, pred, err)
	}
	return append([]PatchID{}, patchIDs(snap.Materialize(s.Sel))...)
}

// checkAscending fails unless snap's ids strictly ascend.
func checkAscending(t *testing.T, what string, snap []*Patch) {
	t.Helper()
	for i := 1; i < len(snap); i++ {
		if snap[i].ID <= snap[i-1].ID {
			t.Errorf("%s: row %d has id %d after %d", what, i, snap[i].ID, snap[i-1].ID)
			return
		}
	}
}

// TestOutOfOrderCommitIsRefused: with the row cache loaded, ids taken
// from NewPatchID in pairs and committed in reverse — the order two
// racing appenders could commit them in — must not leave the cache in
// commit order while the bucket and the indexes hold id order. The later
// id commits; the earlier one is refused and nothing of it is stored.
// Past two sealed segments, every access path then agrees with the row
// scan, before and after a reopen that re-projects the tiered columns.
func TestOutOfOrderCommitIsRefused(t *testing.T) {
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
	db.SetSegmentCache(NewSegmentCache(1 << 20))
	col, err := db.CreateCollection("ord", Schema{Fields: []Field{{Name: "rank", Kind: KindInt}}})
	if err != nil {
		t.Fatal(err)
	}
	row := func(id PatchID) *Patch {
		return &Patch{ID: id, Ref: Ref{Source: "s", Frame: uint64(id)}, Meta: Metadata{"rank": IntV(int64(id % 5))}}
	}
	if err := col.Append(row(db.NewPatchID())); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Patches(); err != nil { // load the row cache
		t.Fatal(err)
	}
	stored := 0
	for col.Len() < 2*ColumnBlockSize+100 {
		lo, hi := db.NewPatchID(), db.NewPatchID()
		if err := col.Append(row(hi)); err != nil {
			t.Fatal(err)
		}
		n := col.Len()
		err := col.Append(row(lo))
		if err == nil {
			stored++
			continue
		}
		if !errors.Is(err, ErrIDOrder) {
			t.Fatalf("id %d after %d: %v, want ErrIDOrder", lo, hi, err)
		}
		if _, err := col.Get(lo); !errors.Is(err, ErrNotFound) || col.Len() != n {
			t.Fatalf("refused id %d: Get %v, %d rows, want not found and %d rows", lo, err, col.Len(), n)
		}
	}
	if stored > 0 {
		t.Errorf("%d out-of-order commits were stored", stored)
	}

	all := Pred{Field: "rank", Range: true, Lo: -1, Hi: 10}
	three := Pred{Field: "rank", V: IntV(3)}
	agree := func(what string, col *Collection) []PatchID {
		t.Helper()
		snap, err := col.Current()
		if err != nil {
			t.Fatal(err)
		}
		checkAscending(t, what, snap.Patches())
		for _, p := range []Pred{all, three} {
			want := firstIDs(t, snap, p, FilterScan, 2)
			methods := []FilterMethod{FilterColumnScan, FilterIndex}
			for _, m := range methods {
				if got := firstIDs(t, snap, p, m, 2); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %v %+v first 2: %v, row scan %v", what, m, p, got, want)
				}
			}
		}
		s, err := snap.Select(context.Background(), three, FilterColumnScan, Keep{})
		if err != nil {
			t.Fatal(err)
		}
		wrong := 0
		for _, r := range s.Sel {
			if !three.Match(snap.Row(int(r))) {
				wrong++
			}
		}
		if wrong > 0 {
			t.Errorf("%s: column scan for rank=3 returned %d rows, %d of them with another rank", what, len(s.Sel), wrong)
		}
		return patchIDs(snap.Patches())
	}
	before := agree("loaded", col)
	if _, err := col.Columns(); err != nil { // every sealed segment spilled
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path, exec.New(exec.CPU)); err != nil {
		t.Fatal(err)
	}
	db.SetSegmentCache(NewSegmentCache(1 << 20))
	if col, err = db.Collection("ord"); err != nil {
		t.Fatal(err)
	}
	if after := agree("reopened", col); !reflect.DeepEqual(after, before) {
		t.Errorf("reopened rows are not the rows before the close, in order")
	}
}

// TestConcurrentAppendsCommitInIDOrder: appenders racing on a warm
// collection, and on every shard of a replicated sharded collection,
// leave every row cache strictly ascending by id, and a reopen loads the
// same rows in the same order.
func TestConcurrentAppendsCommitInIDOrder(t *testing.T) {
	const writers, each = 6, 60
	race := func(t *testing.T, appendFn func(*Patch) error, base int) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if err := appendFn(testPatch(base + w*each + i)); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	t.Run("collection", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "dl.db")
		db := reopenDB(t, path)
		col, err := db.CreateCollection("c", testSchema())
		if err != nil {
			t.Fatal(err)
		}
		race(t, col.Append, 0)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if col, err = reopenDB(t, path).Collection("c"); err != nil {
			t.Fatal(err)
		}
		if _, err := col.Patches(); err != nil { // warm from the bucket
			t.Fatal(err)
		}
		race(t, col.Append, writers*each)
		snap, _ := col.Patches()
		if len(snap) != 2*writers*each {
			t.Fatalf("%d rows, want %d", len(snap), 2*writers*each)
		}
		checkAscending(t, "collection", snap)
	})

	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		sdb, err := OpenShardedReplicas(dir, 3, 2, exec.New(exec.CPU))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := sdb.CreateCollection("c", testSchema())
		if err != nil {
			t.Fatal(err)
		}
		race(t, sc.Append, 0)
		ids := make([][]PatchID, sc.Shards())
		for i := range ids {
			for j := 0; j < sdb.Replicas(); j++ {
				snap, err := sc.Replica(i, j).Patches()
				if err != nil {
					t.Fatal(err)
				}
				checkAscending(t, "replica", snap)
				if j == 0 {
					ids[i] = patchIDs(snap)
				} else if got := patchIDs(snap); !reflect.DeepEqual(got, ids[i]) {
					t.Errorf("shard %d replica %d holds other rows than its primary", i, j)
				}
			}
		}
		if err := sdb.Close(); err != nil {
			t.Fatal(err)
		}
		if sdb, err = OpenShardedReplicas(dir, 3, 2, exec.New(exec.CPU)); err != nil {
			t.Fatal(err)
		}
		defer sdb.Close()
		if sc, err = sdb.Collection("c"); err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			for j := 0; j < sdb.Replicas(); j++ {
				snap, err := sc.Replica(i, j).Patches()
				if err != nil {
					t.Fatal(err)
				}
				if got := patchIDs(snap); !reflect.DeepEqual(got, ids[i]) {
					t.Errorf("reopened shard %d replica %d: rows differ from before the close", i, j)
				}
			}
		}
	})
}

// TestCollectionGetAllocatesOnlyItsPatch: on a loaded collection, Get
// is a binary search of the row table's ids. A hit allocates only the
// patch it returns, which holds the row's stored bytes, and a miss (an
// id another collection holds) allocates nothing, as Find does on
// either.
func TestCollectionGetAllocatesOnlyItsPatch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	db := openDB(t)
	col, _ := db.CreateCollection("a", testSchema())
	other, _ := db.CreateCollection("b", testSchema())
	for i := 0; i < 3000; i++ {
		if err := col.Append(testPatch(i)); err != nil {
			t.Fatal(err)
		}
		if err := other.Append(testPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := col.Patches()
	hit, miss := snap[1234].ID, snap[1234].ID+1
	var p *Patch
	var hitErr, missErr error
	if allocs := testing.AllocsPerRun(100, func() { p, hitErr = col.Get(hit) }); allocs != 1 {
		t.Errorf("hit: %.0f allocations, want 1", allocs)
	}
	if hitErr != nil || p.ID != hit || !bytes.Equal(p.Marshal(), snap[1234].Marshal()) {
		t.Fatalf("hit: %v, %v", p, hitErr)
	}
	cur, err := col.Current()
	if err != nil {
		t.Fatal(err)
	}
	var at int
	var found bool
	for _, id := range []PatchID{hit, miss} {
		if allocs := testing.AllocsPerRun(100, func() { at, found = cur.Find(id) }); allocs != 0 {
			t.Errorf("Find(%d): %.0f allocations, want 0", id, allocs)
		}
		if found != (id == hit) || found && at != 1234 {
			t.Fatalf("Find(%d) = %d, %v", id, at, found)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { p, missErr = col.Get(miss) }); allocs != 0 {
		t.Errorf("miss: %.0f allocations, want 0", allocs)
	}
	if !errors.Is(missErr, ErrNotFound) {
		t.Fatalf("miss: %v, %v", p, missErr)
	}
}
