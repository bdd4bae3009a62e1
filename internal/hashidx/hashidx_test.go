package hashidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/kv"
)

func newIndex(t testing.TB) (*Index, *kv.Pager) {
	t.Helper()
	p := newPager(t)
	ix, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	return ix, p
}

func TestEmpty(t *testing.T) {
	ix, _ := newIndex(t)
	if _, err := ix.Get([]byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty index: %v", err)
	}
	if err := ix.Delete([]byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete on empty index: %v", err)
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestPutGetMany(t *testing.T) {
	ix, _ := newIndex(t)
	const n = 20000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		v := []byte(fmt.Sprintf("val-%d", i))
		if err := ix.Put(k, v); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if ix.Len() != n {
		t.Fatalf("Len = %d, want %d", ix.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, err := ix.Get([]byte(fmt.Sprintf("key-%d", i)))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(key-%d) = %q, %v", i, v, err)
		}
	}
}

// TestPutWarmBucketAllocatesNoPage: replacing a value in a cached bucket
// serializes it into a pooled page (Pager.Write copies it), so a Put
// does not allocate a 4 KiB page. The average holds under the race
// detector too, where sync.Pool drops a quarter of its buffers.
func TestPutWarmBucketAllocatesNoPage(t *testing.T) {
	ix, _ := newIndex(t)
	val := make([]byte, 16)
	for i := 0; i < 8; i++ {
		if err := ix.Put([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	key := []byte("k3")
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := ix.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= pageSize {
		t.Fatalf("Put into a warm bucket allocates %d B, want < %d", per, pageSize)
	}
}

// TestGetAppendReadsInPlace: a lookup walks the cached bucket page and
// copies only the matched value, so GetAppend into a buffer with room
// allocates nothing, hit or miss, and appends to the caller's buffer.
func TestGetAppendReadsInPlace(t *testing.T) {
	ix, _ := newIndex(t)
	for i := 0; i < 2000; i++ { // several splits: many full buckets
		if err := ix.Put([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte{byte(i)}, i%300)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, pageSize)
	key, want := []byte("key-299"), bytes.Repeat([]byte{299 % 256}, 299)
	got, err := ix.GetAppend(append(buf[:0], "hdr"...), key)
	if err != nil || !bytes.Equal(got[:3], []byte("hdr")) || !bytes.Equal(got[3:], want) {
		t.Fatalf("GetAppend: %d bytes, err=%v", len(got), err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("GetAppend did not use the caller's buffer")
	}
	missing := []byte("absent")
	if n := testing.AllocsPerRun(50, func() { ix.GetAppend(buf[:0], key) }); n != 0 {
		t.Fatalf("GetAppend of a present key allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(50, func() { ix.GetAppend(buf[:0], missing) }); n != 0 {
		t.Fatalf("GetAppend of an absent key allocates %.0f times", n)
	}
}

// TestHash64IsFNV1a: bucket placement, and so every page of a persisted
// index, depends on the hash; the inline loop must stay 64-bit FNV-1a.
func TestHash64IsFNV1a(t *testing.T) {
	for _, k := range []string{"", "a", "key-17", "\x00\xff\x80long key"} {
		h := fnv.New64a()
		h.Write([]byte(k))
		if got, want := hash64([]byte(k)), h.Sum64(); got != want {
			t.Fatalf("hash64(%q) = %x, FNV-1a %x", k, got, want)
		}
	}
}

// overflowCounter counts the directory writes and frees a Flush issues.
type overflowCounter struct {
	*kv.Pager
	writes, frees int
}

func (c *overflowCounter) WriteOverflow(val []byte) (uint64, error) {
	c.writes++
	return c.Pager.WriteOverflow(val)
}

func (c *overflowCounter) FreeOverflow(head uint64) error {
	c.frees++
	return c.Pager.FreeOverflow(head)
}

// TestFlushRewritesDirectoryOnlyAfterSplit: a Put + Flush that does not
// split writes the meta page alone — the directory chain is neither
// freed nor rewritten and the meta page names the same head — while a
// split rewrites it; a reopen reads the directory either way.
func TestFlushRewritesDirectoryOnlyAfterSplit(t *testing.T) {
	p := newPager(t)
	pc := &overflowCounter{Pager: p}
	ix, err := Create(pc)
	if err != nil {
		t.Fatal(err)
	}
	dirHead := func() uint64 {
		buf, err := p.Read(ix.Meta())
		if err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint64(buf[9:])
	}
	reopen := func(stage string) {
		re, err := Open(p, ix.Meta())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(re.dir, ix.dir) || re.Len() != ix.Len() {
			t.Fatalf("%s: reopened %d slots and %d entries, want %d and %d", stage, len(re.dir), re.Len(), len(ix.dir), ix.Len())
		}
	}
	if err := ix.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	head, writes, frees := dirHead(), pc.writes, pc.frees
	if err := ix.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if dirHead() != head || pc.writes != writes || pc.frees != frees {
		t.Fatalf("Flush without a split: directory head %d -> %d, %d overflow writes and %d frees",
			head, dirHead(), pc.writes-writes, pc.frees-frees)
	}
	reopen("no split")
	depth := ix.depth
	for i := 0; ix.depth == depth; i++ {
		if err := ix.Put([]byte(fmt.Sprintf("fill-%d", i)), make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if pc.writes == writes || pc.frees == frees {
		t.Fatal("a split did not rewrite the directory")
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	reopen("split")
}

func TestReplace(t *testing.T) {
	ix, _ := newIndex(t)
	for i := 0; i < 100; i++ {
		if err := ix.Put([]byte("same"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after 100 replaces, want 1", ix.Len())
	}
	v, _ := ix.Get([]byte("same"))
	if string(v) != "v99" {
		t.Fatalf("final value %q, want v99", v)
	}
}

func TestReplaceGrowingValue(t *testing.T) {
	ix, _ := newIndex(t)
	// Fill the key's bucket so a grown replacement forces the reinsert path.
	for i := 0; i < 2000; i++ {
		ix.Put([]byte(fmt.Sprintf("filler-%d", i)), bytes.Repeat([]byte("x"), 100))
	}
	key := []byte("grow")
	if err := ix.Put(key, []byte("small")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("B"), 3000)
	if err := ix.Put(key, big); err != nil {
		t.Fatal(err)
	}
	got, err := ix.Get(key)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("grown value mismatch: len=%d err=%v", len(got), err)
	}
}

func TestDelete(t *testing.T) {
	ix, _ := newIndex(t)
	for i := 0; i < 1000; i++ {
		ix.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	for i := 0; i < 1000; i += 3 {
		if err := ix.Delete([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Delete(k%d): %v", i, err)
		}
	}
	for i := 0; i < 1000; i++ {
		_, err := ix.Get([]byte(fmt.Sprintf("k%d", i)))
		if i%3 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted k%d still present", i)
		}
		if i%3 != 0 && err != nil {
			t.Fatalf("kept k%d lost: %v", i, err)
		}
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.db")
	p, err := kv.OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		ix.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	meta := ix.Meta()
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := kv.OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	ix2, err := Open(p2, meta)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != 5000 {
		t.Fatalf("Len after reopen = %d", ix2.Len())
	}
	for i := 0; i < 5000; i += 61 {
		v, err := ix2.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopen Get(k%d) = %q, %v", i, v, err)
		}
	}
}

func TestEntryTooLarge(t *testing.T) {
	ix, _ := newIndex(t)
	if err := ix.Put([]byte("k"), make([]byte, 5000)); err == nil {
		t.Fatal("oversized entry accepted")
	}
}

func TestQuickModelCheck(t *testing.T) {
	ix, _ := newIndex(t)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(9))
	for op := 0; op < 30000; op++ {
		k := fmt.Sprintf("k%d", rng.Intn(1200))
		switch rng.Intn(4) {
		case 0, 1, 2:
			v := fmt.Sprintf("v%d", rng.Int63())
			model[k] = v
			if err := ix.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		default:
			_, had := model[k]
			err := ix.Delete([]byte(k))
			if had != (err == nil) {
				t.Fatalf("Delete(%s) = %v, model had=%v", k, err, had)
			}
			delete(model, k)
		}
	}
	if ix.Len() != len(model) {
		t.Fatalf("Len = %d, model = %d", ix.Len(), len(model))
	}
	for k, v := range model {
		got, err := ix.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	ix, _ := newIndex(t)
	f := func(k, v []byte) bool {
		if len(k) == 0 || 6+len(k)+len(v) > maxEntryBytes {
			return true
		}
		if err := ix.Put(k, v); err != nil {
			return false
		}
		got, err := ix.Get(k)
		return err == nil && bytes.Equal(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFreeReturnsEveryPage: a freed index — buckets, directory chain and
// meta page — hands all its pages back, so building it again does not
// grow the file.
func TestFreeReturnsEveryPage(t *testing.T) {
	ix, p := newIndex(t)
	fill := func(ix *Index) {
		for i := 0; i < 5000; i++ {
			if err := ix.Put([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	fill(ix)
	pages := p.NumPages()
	for round := 0; round < 3; round++ {
		if err := ix.Free(); err != nil {
			t.Fatal(err)
		}
		var err error
		if ix, err = Create(p); err != nil {
			t.Fatal(err)
		}
		fill(ix)
		if got := p.NumPages(); got != pages {
			t.Fatalf("round %d: rebuild after Free grew the file from %d to %d pages", round, pages, got)
		}
	}
}
