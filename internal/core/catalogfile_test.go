package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
)

// assertCatalogAndLogs checks that db's directory holds its catalog
// file, whole, and logs row logs, and nothing else.
func assertCatalogAndLogs(t testing.TB, db *DB, logs int) {
	t.Helper()
	dir, base := filepath.Split(db.path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		switch name := e.Name(); {
		case name == base:
			raw, err := os.ReadFile(db.path)
			if err == nil {
				_, err = decodeCatalog(raw)
			}
			if err != nil {
				t.Fatalf("catalog: %v", err)
			}
		case strings.HasPrefix(name, base+".") && strings.HasSuffix(name, ".rows"):
			n++
		default:
			t.Errorf("the directory holds %s beside the catalog and the row logs", name)
		}
	}
	if n != logs {
		t.Fatalf("the directory holds %d row logs, want %d", n, logs)
	}
}

// copyDir copies the files of dir, and of its subdirectories, into a
// new directory: what a crash at this point would leave on disk.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// rowLogFiles reads every row log in dir, by name.
func rowLogFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	logs := map[string][]byte{}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".rows") {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			logs[e.Name()] = raw
		}
	}
	return logs
}

// errCrash is what a test seam returns where the process would die.
var errCrash = errors.New("crash")

// appendLogRows appends rows from..to-1 of logRow to col.
func appendLogRows(t *testing.T, col *Collection, from, to int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(from)))
	for i := from; i < to; i++ {
		if err := col.Append(logRow(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCatalogFileLayout: a fresh database writes nothing until its
// first Flush, which leaves the catalog and one row log per collection.
// A Flush with nothing new does not replace the catalog. The catalog
// holds the counters and each descriptor, index declarations included,
// and a reopen serves them.
func TestCatalogFileLayout(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dl.db")
	db := reopenDB(t, path)
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("a fresh open left %d files (%v)", len(ents), err)
	}
	for _, name := range []string{"b", "a"} {
		col, err := db.CreateCollection(name, logSchema)
		if err != nil {
			t.Fatal(err)
		}
		appendLogRows(t, col, 0, 300)
	}
	a, _ := db.Collection("a")
	if _, err := db.BuildIndex(a, "label", IdxSorted); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	assertCatalogAndLogs(t, db, 2)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(path); err != nil || !os.SameFile(before, after) {
		t.Fatalf("a Flush with nothing new replaced the catalog (%v)", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	assertCatalogAndLogs(t, db, 2)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := decodeCatalog(raw)
	if err != nil {
		t.Fatal(err)
	}
	if cat.NextID != 600 || len(cat.Cols) != 2 || cat.Cols[0].Name != "a" || cat.Cols[1].Name != "b" ||
		cat.Cols[0].Count != 300 || !slices.Equal(cat.Cols[0].Indexes, []string{"label"}) {
		t.Fatalf("catalog %+v", cat)
	}
	db = reopenDB(t, path)
	a, err = db.Collection("a")
	if err != nil || a.Len() != 300 || !db.HasIndex(a, "label") {
		t.Fatalf("reopened a: %v", err)
	}
	if _, err := db.Collection("c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Collection(c) = %v, want ErrNotFound", err)
	}
}

// savedIndexes reads the index declarations of the catalog file at
// path, one list per collection.
func savedIndexes(t *testing.T, path string) [][]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := decodeCatalog(raw)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, c := range cat.Cols {
		out = append(out, c.Indexes)
	}
	return out
}

// TestCatalogReadsOldIndexKinds: a catalog saved while an index had a
// hash or a B+ tree kind declares "field/hash" or "field/btree". It
// opens as the one sorted index over each field, which the planner
// picks, and the next Flush saves one bare declaration per field.
func TestCatalogReadsOldIndexKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dl.db")
	db := reopenDB(t, path)
	col, err := db.CreateCollection("c", lifecycleSchema())
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, col, 0, 100)
	old := []string{"label/hash", "label/btree", "f/btree"}
	for _, decl := range old {
		col.declareIndex(decl)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := savedIndexes(t, path); !reflect.DeepEqual(got, [][]string{old}) {
		t.Fatalf("saved declarations %q, want %q", got, old)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = reopenDB(t, path)
	col, err = db.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	if !db.HasIndex(col, "label") || !db.HasIndex(col, "f") || db.HasIndex(col, "key") {
		t.Fatal("reopened declarations: want label and f indexed, key not")
	}
	for field, v := range map[string]Value{"label": StrV("hot"), "f": FloatV(0.5)} {
		if m, err := db.PlanFilter(col, field, v); err != nil || m != FilterIndex {
			t.Fatalf("plan on %s = %v, %v; want %v", field, m, err, FilterIndex)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := savedIndexes(t, path), [][]string{{"label", "f"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("declarations after the next Flush %q, want %q", got, want)
	}
}

// TestCatalogRejectsDamage: an open fails on a catalog file whose magic,
// checksum or body is bad, and never half-reads one.
func TestCatalogRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dl.db")
	db := reopenDB(t, path)
	col, err := db.CreateCollection("a", logSchema)
	if err != nil {
		t.Fatal(err)
	}
	appendLogRows(t, col, 0, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	framed := func(body string) []byte {
		raw := binary.LittleEndian.AppendUint32(nil, catalogMagic)
		raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum([]byte(body), castagnoli))
		return append(raw, body...)
	}
	flip := func(i int) []byte {
		raw := bytes.Clone(good)
		raw[i] ^= 1
		return raw
	}
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"empty", nil},
		{"cut header", good[:6]},
		{"cut body", good[:len(good)-1]},
		{"magic", flip(0)},
		{"checksum", flip(5)},
		{"body", flip(len(good) - 2)},
		{"not JSON", framed("{")},
		{"trailing bytes", framed(`{"nextid":1} {}`)},
		{"no row log", framed(`{"collections":[{"name":"a"}]}`)},
		{"duplicate", framed(`{"collections":[{"name":"a","log":1},{"name":"a","log":2}]}`)},
	} {
		if err := os.WriteFile(path, c.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := Open(path, exec.New(exec.CPU)); !errors.Is(err, errBadCatalog) {
			if err == nil {
				db.Close()
			}
			t.Errorf("%s: Open = %v, want errBadCatalog", c.name, err)
		}
	}
}

// TestCatalogCrashBetweenLogSyncAndRename: a Flush cut short after its
// log syncs and before its catalog rename reopens to the old catalog,
// whole, and one that completes reopens to the new one. A row the logs
// synced is read either way, and a collection the old catalog does not
// name leaves no log behind.
func TestCatalogCrashBetweenLogSyncAndRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dl.db")
	db := reopenDB(t, path)
	a, err := db.CreateCollection("a", logSchema)
	if err != nil {
		t.Fatal(err)
	}
	appendLogRows(t, a, 0, 100)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	oldCat, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendLogRows(t, a, 100, 200)
	b, err := db.CreateCollection("b", logSchema)
	if err != nil {
		t.Fatal(err)
	}
	appendLogRows(t, b, 0, 50)

	renameFile = func(string, string) error { return errCrash }
	err = db.Flush()
	renameFile = os.Rename
	if !errors.Is(err, errCrash) {
		t.Fatalf("Flush = %v, want the crash", err)
	}
	crashed := copyDir(t, dir)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	newCat, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flushed := copyDir(t, dir)

	for _, c := range []struct {
		dir  string
		cat  []byte
		cols []string
	}{
		{crashed, oldCat, []string{"a"}},
		{flushed, newCat, []string{"a", "b"}},
	} {
		db := reopenDB(t, filepath.Join(c.dir, "dl.db"))
		if got, err := os.ReadFile(db.path); err != nil || !bytes.Equal(got, c.cat) {
			t.Fatalf("%s: the reopened catalog is neither the old nor the new one (%v)", c.dir, err)
		}
		if got := db.Collections(); !slices.Equal(got, c.cols) {
			t.Fatalf("%s: collections %v, want %v", c.dir, got, c.cols)
		}
		assertCatalogAndLogs(t, db, len(c.cols))
		a, err := db.Collection("a")
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := a.Patches(); err != nil || len(rows) != 200 {
			t.Fatalf("%s: a holds %d rows (%v), want the 200 its log synced", c.dir, len(rows), err)
		}
	}
}

// TestCatalogCrashDuringImport: an import cut short before its catalog
// rename leaves the page file as it was, and the next open imports it
// again: into the same row logs, with the same bytes, reading the same
// rows.
func TestCatalogCrashDuringImport(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "keyed_rows.db"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "dl.db")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	renameFile = func(string, string) error { return errCrash }
	_, err = Open(path, exec.New(exec.CPU))
	renameFile = os.Rename
	if !errors.Is(err, errCrash) {
		t.Fatalf("Open = %v, want the crash", err)
	}
	if raw, err := os.ReadFile(path); err != nil || !isPageFile(raw) {
		t.Fatalf("the cut import left no page file (%v)", err)
	}
	cut := rowLogFiles(t, dir)
	if len(cut) != 2 {
		t.Fatalf("the cut import wrote %d row logs, want 2", len(cut))
	}

	db := reopenDB(t, path)
	checkLineageRows(t, db, keyedRows(0, 160))
	assertCatalogAndLogs(t, db, 2)
	again := rowLogFiles(t, dir)
	for name, raw := range cut {
		if !bytes.Equal(again[name], raw) {
			t.Fatalf("the import rewrote %s differently", name)
		}
	}
}

// TestCatalogCrashBetweenDropAndLogRemoval: a drop cut short after its
// catalog replace and before it removes the collection's row log
// reopens without the collection, and the reopen removes the log.
func TestCatalogCrashBetweenDropAndLogRemoval(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dl.db")
	db := reopenDB(t, path)
	for _, name := range []string{"a", "b"} {
		col, err := db.CreateCollection(name, logSchema)
		if err != nil {
			t.Fatal(err)
		}
		appendLogRows(t, col, 0, 100)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	removeFile = func(string) error { return errCrash }
	err := db.DropCollection("a")
	removeFile = os.Remove
	if !errors.Is(err, errCrash) {
		t.Fatalf("DropCollection = %v, want the crash", err)
	}
	crashed := copyDir(t, dir)
	if n := len(rowLogFiles(t, crashed)); n != 2 {
		t.Fatalf("the cut drop left %d row logs, want 2", n)
	}
	db2 := reopenDB(t, filepath.Join(crashed, "dl.db"))
	if got := db2.Collections(); !slices.Equal(got, []string{"b"}) {
		t.Fatalf("collections %v, want [b]", got)
	}
	if _, err := db2.Collection("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Collection(a) = %v, want ErrNotFound", err)
	}
	assertCatalogAndLogs(t, db2, 1)
	b, err := db2.Collection("b")
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := b.Patches(); err != nil || len(rows) != 100 {
		t.Fatalf("b holds %d rows (%v), want 100", len(rows), err)
	}
}
