package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/exec"
)

func testSchema() Schema {
	return Schema{
		Data: Features(4),
		Fields: []Field{
			{Name: "label", Kind: KindStr},
			{Name: "frameno", Kind: KindInt},
		},
	}
}

func testPatch(i int) *Patch {
	return &Patch{
		Ref: Ref{Source: "src", Frame: uint64(i)},
		Meta: Metadata{
			"label":   StrV(fmt.Sprintf("l%d", i%3)),
			"frameno": IntV(int64(i)),
		},
	}
}

// TestCatalogConcurrentReadersDuringWrites exercises the catalog's shared
// read path under live appends: snapshot scans, id gets, catalog listing
// and device reads race a writer goroutine, and a flusher that replaces
// the catalog file while it creates and drops a side collection. A
// reopen then finds every appended row and no side collection. Run with
// -race.
func TestCatalogConcurrentReadersDuringWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.db")
	db, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("live", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := col.Append(testPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := col.Patches(); err != nil { // warm the scan cache
		t.Fatal(err)
	}

	const writes = 300
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	wg.Add(1)
	go func() { // writer: appends bump the version
		defer wg.Done()
		for i := 50; i < 50+writes; i++ {
			if err := col.Append(testPatch(i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // flusher: catalog replaces and drops race the appends
		defer wg.Done()
		for i := 0; i < 20; i++ {
			side, err := db.CreateCollection("side", testSchema())
			if err == nil {
				err = side.Append(testPatch(i))
			}
			if err == nil {
				err = db.Flush()
			}
			if err == nil {
				err = db.DropCollection("side")
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() { // readers: snapshots must be stable prefixes
			defer wg.Done()
			var lastLen int
			var lastVer uint64
			for i := 0; i < 200; i++ {
				snap, err := col.Current()
				if err != nil {
					errs <- err
					return
				}
				if snap.Len() < lastLen {
					errs <- fmt.Errorf("snapshot shrank: %d -> %d", lastLen, snap.Len())
					return
				}
				if snap.version < lastVer {
					errs <- fmt.Errorf("version went backwards: %d -> %d", lastVer, snap.version)
					return
				}
				lastLen, lastVer = snap.Len(), snap.version
				for _, p := range snap.Patches()[:min(snap.Len(), 10)] {
					if _, err := col.Get(p.ID); err != nil {
						errs <- err
						return
					}
				}
				_ = db.Collections()
				_ = db.Device()
				if _, err := db.Collection("live"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := col.Len(); got != 50+writes {
		t.Fatalf("final count = %d, want %d", got, 50+writes)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = reopenDB(t, path)
	if got := db.Collections(); len(got) != 1 || got[0] != "live" {
		t.Fatalf("reopened collections %v, want [live]", got)
	}
	if col, err := db.Collection("live"); err != nil || col.Len() != 50+writes {
		t.Fatalf("reopened live: %v", err)
	}
}

// TestDropCollectionVersioning verifies re-ingest semantics: dropping and
// re-creating a collection yields a strictly newer version, and the old
// contents are gone from both the catalog and lineage resolution.
func TestDropCollectionVersioning(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "d.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateCollection("x", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	p := testPatch(0)
	if err := col.Append(p); err != nil {
		t.Fatal(err)
	}
	v1 := col.Version()
	oldID := p.ID
	if _, err := db.BuildIndex(col, "label", IdxSorted); err != nil {
		t.Fatal(err)
	}

	if err := db.DropCollection("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Collection("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped collection still opens: %v", err)
	}
	if _, err := db.GetPatch(oldID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped patch still resolves: %v", err)
	}

	col2, err := db.CreateCollection("x", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if v2 := col2.Version(); v2 <= v1 {
		t.Fatalf("re-created collection version %d not newer than %d", v2, v1)
	}
	if db.HasIndex(col2, "label") {
		t.Fatal("index descriptor survived the drop")
	}
	if got := col2.Len(); got != 0 {
		t.Fatalf("re-created collection has %d patches, want 0", got)
	}
	// Dropping a collection that never existed reports ErrNotFound.
	if err := db.DropCollection("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("DropCollection(missing) = %v, want ErrNotFound", err)
	}
}

// TestDropKeepsOtherCollectionsIndexes: dropping collection "a" leaves
// the index of "a.b", whose name has "a" and a dot as its prefix,
// declared — in process and after a reopen.
func TestDropKeepsOtherCollectionsIndexes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.db")
	db := reopenDB(t, path)
	if _, err := db.CreateCollection("a", testSchema()); err != nil {
		t.Fatal(err)
	}
	ab, err := db.CreateCollection("a.b", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Append(testPatch(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildIndex(ab, "label", IdxSorted); err != nil {
		t.Fatal(err)
	}
	if err := db.DropCollection("a"); err != nil {
		t.Fatal(err)
	}
	if !db.HasIndex(ab, "label") {
		t.Fatal("dropping a undeclared a.b's index")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = reopenDB(t, path)
	if ab, err = db.Collection("a.b"); err != nil {
		t.Fatal(err)
	}
	if !db.HasIndex(ab, "label") {
		t.Fatal("a.b's index declaration lost across the reopen after dropping a")
	}
}

// TestVersionPersistsAcrossReopen checks that versions are durable: a
// flushed database reopened from disk reports the same version, and the
// global counter never reissues old values.
func TestVersionPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.db")
	db, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("x", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := col.Append(testPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	v1 := col.Version()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	col2, err := db2.Collection("x")
	if err != nil {
		t.Fatal(err)
	}
	if got := col2.Version(); got != v1 {
		t.Fatalf("version after reopen = %d, want %d", got, v1)
	}
	if err := col2.Append(testPatch(5)); err != nil {
		t.Fatal(err)
	}
	if got := col2.Version(); got <= v1 {
		t.Fatalf("post-reopen append version %d not newer than %d", got, v1)
	}
}
