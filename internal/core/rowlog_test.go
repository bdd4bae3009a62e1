package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/tensor"
)

// storedRows loads col, writes its tail block and returns the stored
// bytes of each row its row log holds, by id.
func storedRows(t testing.TB, col *Collection) map[PatchID][]byte {
	t.Helper()
	if _, err := col.Current(); err != nil {
		t.Fatal(err)
	}
	col.mu.Lock()
	err := col.log.sync()
	path := rowLogPath(col.db.path, col.logKey)
	col.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[PatchID][]byte{}
	if err := readRowLog(bytes.NewReader(buf), int64(len(buf)), func(id PatchID, row []byte) error {
		rows[id] = bytes.Clone(row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// logSchema is the generated rows' schema: the fixture's fields, a
// fixed-dimension vector and a variable pixel payload.
var logSchema = Schema{Data: Pixels(0, 0), Fields: append(append([]Field(nil), fixtureFields...),
	Field{Name: "emb", Kind: KindVec, VecDim: 4})}

// logRow generates row i: a fixture row with an embedding, sometimes an
// undeclared field, and now and then a pixel payload, one in four of
// those larger than a block.
func logRow(rng *rand.Rand, i int) *Patch {
	m := fixtureMeta([]string{"car", "bus", "", "pedestrian"}, rng)
	m["emb"] = VecV([]float32{rng.Float32(), float32(i), -1, 0})
	if rng.Intn(4) == 0 {
		m["note"] = StrV(fmt.Sprint("n", rng.Intn(100)))
	}
	p := &Patch{Ref: Ref{Source: fmt.Sprint("cam", i%3), Frame: uint64(i)}, Meta: m}
	if rng.Intn(16) == 0 {
		h := 1 + rng.Intn(8)
		if rng.Intn(4) == 0 {
			h = 40 + rng.Intn(20) // 4.8-7.1 KiB: a block of its own
		}
		px := tensor.NewU8(h, 40, 3)
		rng.Read(px.U8s)
		p.Data = px
	}
	return p
}

// genStore is the database under the reopen generator: an unsharded DB
// or an N-shard set, reopened in place.
type genStore struct {
	t      *testing.T
	dir    string
	shards int
	db     *DB
	sdb    *Sharded
}

func (g *genStore) open() {
	g.t.Helper()
	var err error
	if g.shards == 1 {
		g.db, err = Open(filepath.Join(g.dir, "dl.db"), exec.New(exec.CPU))
	} else {
		g.sdb, err = OpenSharded(g.dir, g.shards, exec.New(exec.CPU))
	}
	if err != nil {
		g.t.Fatal(err)
	}
}

func (g *genStore) flush() error {
	if g.db != nil {
		return g.db.Flush()
	}
	return g.sdb.Flush()
}

func (g *genStore) close() error {
	if g.db != nil {
		return g.db.Close()
	}
	return g.sdb.Close()
}

// appender returns collection name's Append.
func (g *genStore) appender(name string) func(*Patch) error {
	g.t.Helper()
	if g.db != nil {
		c, err := g.db.Collection(name)
		if err != nil {
			g.t.Fatal(err)
		}
		return c.Append
	}
	c, err := g.sdb.Collection(name)
	if err != nil {
		g.t.Fatal(err)
	}
	return c.Append
}

func (g *genStore) materialize(name string, rows []*Patch) error {
	if g.db != nil {
		_, err := g.db.Materialize(name, logSchema, FromPatches(rows))
		return err
	}
	_, err := g.sdb.Materialize(name, logSchema, FromPatches(rows))
	return err
}

// snapshots returns each shard's snapshot of collection name.
func (g *genStore) snapshots(name string) []Snapshot {
	g.t.Helper()
	var cols []*Collection
	if g.db != nil {
		c, err := g.db.Collection(name)
		if err != nil {
			g.t.Fatal(err)
		}
		cols = []*Collection{c}
	} else {
		sc, err := g.sdb.Collection(name)
		if err != nil {
			g.t.Fatal(err)
		}
		for i := 0; i < sc.Shards(); i++ {
			cols = append(cols, sc.Shard(i))
		}
	}
	snaps := make([]Snapshot, len(cols))
	for i, c := range cols {
		s, err := c.Current()
		if err != nil {
			g.t.Fatal(err)
		}
		snaps[i] = s
	}
	return snaps
}

// TestRowLogReopenGenerator runs seeded single appends and Materialize
// batches, with Flush, or Close and a reopen, at random points, on an
// unsharded DB and a 3-shard set: every snapshot a reopen loads equals,
// row for row and byte for byte, the snapshot before the close.
func TestRowLogReopenGenerator(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("N=%d/seed=%d", shards, seed), func(t *testing.T) {
				runReopenGenerator(t, shards, seed)
			})
		}
	}
}

func runReopenGenerator(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g := &genStore{t: t, dir: t.TempDir(), shards: shards}
	g.open()
	names := []string{"live"}
	if err := g.materialize("live", nil); err != nil {
		t.Fatal(err)
	}
	live := g.appender("live")
	frame := 0
	next := func() *Patch { frame++; return logRow(rng, frame) }
	reopen := func() {
		before := map[string][]Snapshot{}
		for _, name := range names {
			before[name] = g.snapshots(name)
		}
		if err := g.close(); err != nil {
			t.Fatal(err)
		}
		g.open()
		for _, name := range names {
			after := g.snapshots(name)
			for s := range after {
				assertSameSnapshot(t, fmt.Sprintf("%s shard %d", name, s), before[name][s], after[s])
			}
		}
		live = g.appender("live")
	}
	for step := 0; step < 60; step++ {
		switch r := rng.Intn(20); {
		case r < 10:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if err := live(next()); err != nil {
					t.Fatal(err)
				}
			}
		case r < 12:
			for n := 50 + rng.Intn(250); n > 0; n-- {
				if err := live(next()); err != nil {
					t.Fatal(err)
				}
			}
		case r < 15:
			name := fmt.Sprint("batch.", len(names))
			rows := make([]*Patch, rng.Intn(200))
			for i := range rows {
				rows[i] = next()
			}
			if err := g.materialize(name, rows); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		case r < 17:
			if err := g.flush(); err != nil {
				t.Fatal(err)
			}
		default:
			reopen()
		}
	}
	reopen()
	if err := g.close(); err != nil {
		t.Fatal(err)
	}
}

// assertSameSnapshot checks that got holds want's rows, row for row, and
// that each encodes to the same bytes in got's collection.
func assertSameSnapshot(t *testing.T, what string, want, got Snapshot) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: reopened %d rows, closed with %d", what, got.Len(), want.Len())
	}
	codec := got.col.codec
	wantRows, gotRows := want.Patches(), got.Patches()
	for i := range gotRows {
		if err := samePatch(wantRows[i], gotRows[i]); err != nil {
			t.Fatalf("%s row %d: %v", what, i, err)
		}
		a, err := codec.encode(wantRows[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := codec.encode(gotRows[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s row %d: encodes to %x after the reopen, %x before", what, i, b, a)
		}
	}
}

// writeLog appends copies of rows to a new collection of a database in
// dir, writing a block at each index in flushAt, and returns the
// database's path and the collection's log path, closed.
func writeLog(t testing.TB, dir string, rows []*Patch, flushAt ...int) (string, string) {
	t.Helper()
	path := filepath.Join(dir, "dl.db")
	db, err := Open(path, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("log", logSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range rows {
		for _, at := range flushAt {
			if at == i {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := col.Append(p.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	logPath := rowLogPath(path, col.logKey)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path, logPath
}

// TestRowLogByteFlipsAreCorrupt flips each byte of a small three-block
// row log in turn: every flip fails the reopened collection's load with
// errCorrupt, and none returns a row.
func TestRowLogByteFlipsAreCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]*Patch, 9)
	for i := range rows {
		rows[i] = &Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Meta: fixtureMeta([]string{"a", "b"}, rng)}
		rows[i].Meta["emb"] = VecV([]float32{float32(i), 0, 1, 2})
	}
	path, logPath := writeLog(t, t.TempDir(), rows, 3, 6)
	good, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	load := func() (Snapshot, error) {
		db, err := Open(path, exec.New(exec.CPU))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		col, err := db.Collection("log")
		if err != nil {
			t.Fatal(err)
		}
		return col.Current()
	}
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0xff
		if err := os.WriteFile(logPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := load(); !errors.Is(err, errCorrupt) || s.Len() != 0 {
			t.Fatalf("byte %d of %d flipped: loaded %d rows, err %v, want errCorrupt", i, len(good), s.Len(), err)
		}
	}
	if err := os.WriteFile(logPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := load(); err != nil || s.Len() != len(rows) {
		t.Fatalf("the restored log loads %d rows, err %v", s.Len(), err)
	}
}

// TestRowLogOversizedRowOwnsBlock: a row larger than a block is written
// as a block of its own, between blocks of the rows around it, and
// reads back with the ids of all of them.
func TestRowLogOversizedRowOwnsBlock(t *testing.T) {
	rows := make([]*Patch, 5)
	for i := range rows {
		rows[i] = &Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Meta: Metadata{
			"label": StrV("a"), "score": FloatV(1), "rank": IntV(int64(i)), "emb": VecV(make([]float32, 4)),
		}}
	}
	rows[2].Data = tensor.NewU8(50, 40, 3) // 6000 B
	_, logPath := writeLog(t, t.TempDir(), rows)
	buf, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for off := 0; off < len(buf); {
		counts = append(counts, int(binary.LittleEndian.Uint16(buf[off+8:])))
		off += blockHeader + int(binary.LittleEndian.Uint32(buf[off+4:]))
	}
	if fmt.Sprint(counts) != "[2 1 2]" {
		t.Fatalf("blocks hold %v rows, want [2 1 2]", counts)
	}
	var ids []PatchID
	if err := readRowLog(bytes.NewReader(buf), int64(len(buf)), func(id PatchID, _ []byte) error {
		ids = append(ids, id)
		return nil
	}); err != nil || fmt.Sprint(ids) != "[1 2 3 4 5]" {
		t.Fatalf("read ids %v, err %v", ids, err)
	}
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestDropDeletesRowLog drops, re-creates, refills and re-indexes
// collections whose names are no file names, in a store imported from
// the page-file format: each drop deletes the collection's row log, no
// re-created collection shares a log with a dropped one, and the bytes
// on disk stay flat round after round: the row logs' exactly, the
// catalog's but for its counters' digits. The imported collection's drop
// deletes the log the import wrote, and the directory ends with only the
// catalog.
func TestDropDeletesRowLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dl.db")
	rng := rand.New(rand.NewSource(1))
	writePageFormat(t, path, "old", Schema{Fields: fixtureFields}, []*Patch{{Meta: fixtureMeta([]string{"a"}, rng)}})
	db := reopenDB(t, path)
	assertCatalogAndLogs(t, db, 1)
	if err := db.DropCollection("old"); err != nil {
		t.Fatal(err)
	}
	assertCatalogAndLogs(t, db, 0)
	seen := map[string]bool{}
	var logBytes, catBytes []int64
	for round := 0; round < 6; round++ {
		for _, name := range []string{"bench.dets", "../x/y z", ""} {
			col, err := db.CreateCollection(name, logSchema)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2)) // the same rows every round
			for i := 0; i < 400; i++ {
				if err := col.Append(logRow(rng, i)); err != nil {
					t.Fatal(err)
				}
			}
			logPath := rowLogPath(path, col.logKey)
			if seen[logPath] || filepath.Dir(logPath) != dir {
				t.Fatalf("round %d: collection %q logs to %s", round, name, logPath)
			}
			seen[logPath] = true
			if _, err := db.BuildIndex(col, "label", IdxSorted); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		logBytes, catBytes = append(logBytes, dirBytes(t, dir)-info.Size()), append(catBytes, info.Size())
		for _, name := range []string{"bench.dets", "../x/y z", ""} {
			if err := db.DropCollection(name); err != nil {
				t.Fatal(err)
			}
		}
		for p := range seen {
			if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("round %d: %s outlives its collection (%v)", round, p, err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	t.Logf("row log and catalog bytes by round: %v, %v", logBytes, catBytes)
	for i := range logBytes {
		// Eight counters (nextid, nextver, and each descriptor's version
		// and log key) may each gain a digit or two.
		if logBytes[i] > logBytes[0] || catBytes[i] > catBytes[0]+16 {
			t.Fatalf("round %d holds %d + %d bytes on disk, round 0 held %d + %d", i, logBytes[i], catBytes[i], logBytes[0], catBytes[0])
		}
	}
	assertCatalogAndLogs(t, db, 0)
}

// FuzzRowLog feeds arbitrary bytes to the row log reader: it returns
// rows, with ascending ids, or errCorrupt, and never panics. The seeds
// are real logs, one of them holding a row larger than a block. With
// reseal set, each block the headers delimit gets its checksum
// recomputed first, so the framing checks behind the checksum are
// fuzzed too.
func FuzzRowLog(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]*Patch, 6)
	for i := range rows {
		rows[i] = &Patch{Ref: Ref{Source: "s", Frame: uint64(i)}, Meta: fixtureMeta([]string{"a", "b"}, rng)}
		rows[i].Meta["emb"] = VecV([]float32{float32(i), 0, 1, 2})
	}
	// Small logs keep the fuzzer's minimization short: three blocks of
	// two rows, and a row larger than a block between two small ones.
	_, small := writeLog(f, f.TempDir(), rows, 2, 4)
	rows[4].Data = tensor.NewU8(35, 40, 3) // 4200 B
	_, oversized := writeLog(f, f.TempDir(), rows[3:])
	for _, path := range []string{small, oversized} {
		buf, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf, false)
		f.Add(buf, true)
		f.Add(buf[:len(buf)/2], false)
	}
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = bytes.Clone(data)
			for off := 0; off+blockHeader <= len(data); {
				end := off + blockHeader + int(binary.LittleEndian.Uint32(data[off+4:]))
				if end > len(data) {
					break
				}
				binary.LittleEndian.PutUint32(data[off:], crc32.Checksum(data[off+4:end], castagnoli))
				off = end
			}
		}
		var last PatchID
		err := readRowLog(bytes.NewReader(data), int64(len(data)), func(id PatchID, row []byte) error {
			if id <= last {
				t.Fatalf("id %d after %d", id, last)
			}
			last = id
			return nil
		})
		if err != nil && !errors.Is(err, errCorrupt) {
			t.Fatalf("read error %v, want errCorrupt", err)
		}
	})
}
