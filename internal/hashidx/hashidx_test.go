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

// chainKeys are "k%d" keys whose FNV-1a hashes share their low maxGlobal
// bits (found by brute force), so no split can separate them: once their
// bucket reaches maxGlobal, every insert that overflows it goes through
// chainInsert.
var chainKeys = []string{"k0", "k1292703", "k1885051", "k2936637", "k3297405"}

// freePages counts p's free pages by allocating until the file grows.
// The pages stay allocated, so it is a test's last use of p.
func freePages(t *testing.T, p *kv.Pager) uint64 {
	t.Helper()
	end := p.NumPages()
	var free uint64
	for {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if id >= end {
			return free
		}
		free++
	}
}

// TestOverflowChainAtMaxDepth drives a bucket at maxGlobal into an
// overflow chain: a new page when the chain's pages are full, room on an
// existing page after a walk, Get, replace (in place and past its page)
// and Delete along the chain, a reopen of the page file through Open,
// and a Free that returns every page.
func TestOverflowChainAtMaxDepth(t *testing.T) {
	const mask = 1<<maxGlobal - 1
	for _, k := range chainKeys[1:] {
		if hash64([]byte(k))&mask != hash64([]byte(chainKeys[0]))&mask {
			t.Fatalf("%s does not share k0's low %d hash bits", k, maxGlobal)
		}
	}
	path := filepath.Join(t.TempDir(), "h.db")
	p, err := kv.OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	put := func(k string, n int) {
		t.Helper()
		v := bytes.Repeat([]byte{byte(len(want) + n)}, n)
		if err := ix.Put([]byte(k), v); err != nil {
			t.Fatalf("Put(%s, %d bytes): %v", k, n, err)
		}
		want[k] = v
	}
	check := func(ix *Index, stage string) {
		t.Helper()
		if ix.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d", stage, ix.Len(), len(want))
		}
		for _, k := range chainKeys {
			got, err := ix.Get([]byte(k))
			if v, ok := want[k]; !ok && !errors.Is(err, ErrNotFound) || ok && (err != nil || !bytes.Equal(got, v)) {
				t.Fatalf("%s: Get(%s) = %d bytes, %v; want %d bytes", stage, k, len(got), err, len(v))
			}
		}
	}
	chain := func() (pages int) {
		t.Helper()
		for id := ix.dir[ix.slot(hash64([]byte(chainKeys[0])))]; id != 0; pages++ {
			buf, err := p.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			id = nextPage(buf)
		}
		return pages
	}

	put(chainKeys[0], 2000) // two 2 KB entries fill the head page
	put(chainKeys[1], 2000)
	put(chainKeys[2], 2000) // splits to maxGlobal, then chains a new page
	if ix.depth != maxGlobal || chain() != 2 {
		t.Fatalf("after the third key: depth %d, chain of %d pages; want %d and 2", ix.depth, chain(), maxGlobal)
	}
	put(chainKeys[3], 100) // walks past the full head into the second page's room
	if chain() != 2 {
		t.Fatalf("a key with room on the second page grew the chain to %d pages", chain())
	}
	put(chainKeys[4], 2000) // both pages full: a third
	if chain() != 3 {
		t.Fatalf("chain of %d pages, want 3", chain())
	}
	check(ix, "built")

	put(chainKeys[3], 60)   // replace in place on the second page
	put(chainKeys[2], 4000) // outgrows the second page: moves to a new fourth
	if chain() != 4 {
		t.Fatalf("after the growing replace: chain of %d pages, want 4", chain())
	}
	check(ix, "replaced")
	for _, k := range []string{chainKeys[4], chainKeys[0]} {
		if err := ix.Delete([]byte(k)); err != nil {
			t.Fatalf("Delete(%s): %v", k, err)
		}
		delete(want, k)
	}
	if err := ix.Delete([]byte(chainKeys[4])); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Delete(%s) = %v, want ErrNotFound", chainKeys[4], err)
	}
	put(chainKeys[0], 500) // back into the head page's room
	check(ix, "deleted")

	meta := ix.Meta()
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p, err = kv.OpenPager(path); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if ix, err = Open(p, meta); err != nil {
		t.Fatal(err)
	}
	check(ix, "reopened")
	put(chainKeys[4], 3000) // chains on the reopened index too
	check(ix, "reopened and extended")

	if err := ix.Free(); err != nil {
		t.Fatal(err)
	}
	pages := p.NumPages() // page 0 is the pager's own meta page
	if free := freePages(t, p); free != pages-1 {
		t.Fatalf("Free left %d of the index's %d pages in use", pages-1-free, pages-1)
	}
}
