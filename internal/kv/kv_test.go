package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func openTemp(t testing.TB) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "s.db"))
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPagerAllocFree(t *testing.T) {
	p, err := OpenPager(filepath.Join(t.TempDir(), "p.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("alloc returned %d, %d", a, b)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	c, _ := p.Alloc()
	if c != a {
		t.Fatalf("freed page %d not reused (got %d)", a, c)
	}
}

func TestPagerReadBadPage(t *testing.T) {
	p, err := OpenPager(filepath.Join(t.TempDir(), "p.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Read(999); !errors.Is(err, ErrBadPage) {
		t.Fatalf("Read(999) err = %v, want ErrBadPage", err)
	}
	if _, err := p.Read(0); !errors.Is(err, ErrBadPage) {
		t.Fatalf("Read(0) err = %v, want ErrBadPage (meta page is private)", err)
	}
}

func TestPagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	p, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Alloc()
	want := make([]byte, PageSize)
	for i := range want {
		want[i] = byte(i % 251)
	}
	if err := p.Write(id, want); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got, err := p2.Read(id)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("page content lost across reopen (err=%v)", err)
	}
}

// TestPagerEvictionKeepsFailedWriteBack: a dirty page whose eviction
// write-back fails stays cached and dirty — reads still see it, Flush
// reports the failure, and a Flush once the file is writable again
// persists it.
func TestPagerEvictionKeepsFailedWriteBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	p, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	p.maxCache = 4
	id, _ := p.Alloc()
	want := make([]byte, PageSize)
	for i := range want {
		want[i] = byte(i % 253)
	}
	if err := p.Write(id, want); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	rw := p.f
	p.f = ro // every write-back now fails
	for i := 0; i < 3*p.maxCache; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.CachedPages(); n <= p.maxCache {
		t.Fatalf("%d cached pages: failed write-backs were dropped to hold the cap of %d", n, p.maxCache)
	}
	if got, err := p.Read(id); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("page lost after a failed eviction write-back (err=%v)", err)
	}
	if err := p.Flush(); err == nil {
		t.Fatal("Flush succeeded with every write-back failing")
	}
	p.f = rw
	if err := p.Close(); err != nil {
		t.Fatalf("Close on a writable file: %v", err)
	}
	p2, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got, err := p2.Read(id); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("retried write-back did not persist the page (err=%v)", err)
	}
}

func TestPagerNotAStoreFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk.db")
	if err := writeJunk(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPager(path); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("OpenPager(junk) err = %v, want ErrBadMagic", err)
	}
}

func writeJunk(path string) error {
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = 0xAB
	}
	return os.WriteFile(path, buf, 0o644)
}

func TestOverflowRoundTrip(t *testing.T) {
	p, err := OpenPager(filepath.Join(t.TempDir(), "p.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, n := range []int{0, 1, overflowCap, overflowCap + 1, 3*overflowCap + 17, 1 << 20} {
		val := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(val)
		head, err := p.WriteOverflow(val)
		if err != nil {
			t.Fatalf("WriteOverflow(%d): %v", n, err)
		}
		got, err := p.ReadOverflow(nil, head, n)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("ReadOverflow(%d) mismatch (err=%v)", n, err)
		}
		if err := p.FreeOverflow(head); err != nil {
			t.Fatalf("FreeOverflow(%d): %v", n, err)
		}
	}
}

func TestBucketBasic(t *testing.T) {
	s := openTemp(t)
	b, err := s.Bucket("frames")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := b.Get([]byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := b.Get([]byte("zz")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v, want ErrNotFound", err)
	}
}

func TestBucketIsolation(t *testing.T) {
	s := openTemp(t)
	b1, _ := s.Bucket("one")
	b2, _ := s.Bucket("two")
	b1.Put([]byte("k"), []byte("from-one"))
	b2.Put([]byte("k"), []byte("from-two"))
	v1, _ := b1.Get([]byte("k"))
	v2, _ := b2.Get([]byte("k"))
	if string(v1) != "from-one" || string(v2) != "from-two" {
		t.Fatalf("buckets not isolated: %q / %q", v1, v2)
	}
}

func TestStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Bucket("payloads")
	for i := 0; i < 2000; i++ {
		if err := b.Put(U64Key(uint64(i)), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	b2, _ := s2.Bucket("payloads")
	for i := 0; i < 2000; i += 37 {
		v, err := b2.Get(U64Key(uint64(i)))
		if err != nil || string(v) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("reopen Get(%d) = %q, %v", i, v, err)
		}
	}
}

func TestBucketScanOrderedByU64Key(t *testing.T) {
	s := openTemp(t)
	b, _ := s.Bucket("ordered")
	perm := rand.New(rand.NewSource(3)).Perm(500)
	for _, i := range perm {
		b.Put(U64Key(uint64(i)), nil)
	}
	var got []uint64
	b.Scan(nil, nil, func(k, _ []byte) bool {
		got = append(got, ParseU64Key(k))
		return true
	})
	if len(got) != 500 {
		t.Fatalf("scan count = %d", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("U64Key scan not in numeric order")
	}
}

func TestBucketRangeScanPushdown(t *testing.T) {
	s := openTemp(t)
	b, _ := s.Bucket("frames")
	for i := 0; i < 1000; i++ {
		b.Put(U64Key(uint64(i)), []byte{1})
	}
	n := 0
	b.Scan(U64Key(250), U64Key(260), func(_, _ []byte) bool { n++; return true })
	if n != 10 {
		t.Fatalf("range scan visited %d entries, want 10", n)
	}
}

func TestU64KeyRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool { return ParseU64Key(U64Key(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU64KeyOrderPreserving(t *testing.T) {
	f := func(a, b uint64) bool {
		return (a < b) == (bytes.Compare(U64Key(a), U64Key(b)) < 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s.db"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Bucket("b")
	b.Put([]byte("k"), []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Put([]byte("k2"), []byte("v")); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
}

// TestPutWarmLeafAllocatesNoPage: replacing a value in a cached leaf
// edits a pooled copy of the page (Pager.Write copies it back), so a Put
// does not allocate a 4 KiB page. The average holds under the race
// detector too, where sync.Pool drops a quarter of its buffers.
func TestPutWarmLeafAllocatesNoPage(t *testing.T) {
	b, err := openTemp(t).Bucket("rows")
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	for i := 0; i < 16; i++ {
		if err := b.Put(U64Key(uint64(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := b.Put(U64Key(uint64(i%16)), val); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= PageSize {
		t.Fatalf("Put into a warm leaf allocates %d B, want < %d", per, PageSize)
	}
}

// TestGetAppendReusesBuffer: GetAppend copies the value into the
// caller's buffer — inline or overflow — and a buffer with room makes
// the read allocation-free.
func TestGetAppendReusesBuffer(t *testing.T) {
	b, err := openTemp(t).Bucket("blobs")
	if err != nil {
		t.Fatal(err)
	}
	small, large := bytes.Repeat([]byte{7}, 100), bytes.Repeat([]byte{9}, 3*PageSize)
	if err := b.Put([]byte("small"), small); err != nil {
		t.Fatal(err)
	}
	if err := b.Put([]byte("large"), large); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4*PageSize)
	for key, want := range map[string][]byte{"small": small, "large": large} {
		got, err := b.GetAppend(append(buf[:0], "hdr"...), []byte(key))
		if err != nil || !bytes.Equal(got[:3], []byte("hdr")) || !bytes.Equal(got[3:], want) {
			t.Fatalf("GetAppend(%s): %d bytes, err=%v", key, len(got), err)
		}
		if &got[0] != &buf[:1][0] {
			t.Fatalf("GetAppend(%s) did not use the caller's buffer", key)
		}
		k := []byte(key)
		if n := testing.AllocsPerRun(20, func() { b.GetAppend(buf[:0], k) }); n != 0 {
			t.Fatalf("GetAppend(%s) into a roomy buffer allocates %.0f times", key, n)
		}
	}
	if _, err := b.GetAppend(buf[:0], []byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetAppend(absent) = %v, want ErrNotFound", err)
	}
}

// TestReadOverflowRejectsCorruptChains: a length no chain in the file can
// hold fails before any buffer is sized, and a chain that loops back on
// itself without filling its pages ends in ErrCorruptVal instead of
// spinning.
func TestReadOverflowRejectsCorruptChains(t *testing.T) {
	p, err := OpenPager(filepath.Join(t.TempDir(), "p.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	head, err := p.WriteOverflow(bytes.Repeat([]byte{1}, 3*overflowCap))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.ReadOverflow(nil, head, 1<<30); !errors.Is(err, ErrCorruptVal) {
		t.Fatalf("ReadOverflow of a 1 GiB length in a %d-page file: %v", p.NumPages(), err)
	}
	if runtime.ReadMemStats(&after); after.TotalAlloc-before.TotalAlloc > 1<<20 {
		t.Fatalf("a corrupt length allocated %d bytes", after.TotalAlloc-before.TotalAlloc)
	}
	loop := make([]byte, PageSize) // next = itself, no payload
	binary.LittleEndian.PutUint64(loop, head)
	if err := p.Write(head, loop); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadOverflow(nil, head, 3*overflowCap); !errors.Is(err, ErrCorruptVal) {
		t.Fatalf("ReadOverflow of a looping chain: %v", err)
	}
}

// TestFlushReleasesWrittenPages: Flush hands every page it writes back
// to the file and keeps no clean copy, so a flushed store caches nothing
// until it is read. Pages read from the file afterwards stay cached
// across a Flush with nothing to write, and a slice Read returned before
// a Flush keeps its contents after it, even once the page is rewritten.
func TestFlushReleasesWrittenPages(t *testing.T) {
	s := openTemp(t)
	b, err := s.Bucket("rows")
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int) []byte {
		n := 40
		if i%50 == 0 {
			n = 3 * PageSize // an overflow chain
		}
		return bytes.Repeat([]byte{byte(i)}, n)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := b.Put(U64Key(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	p := s.Pager()
	if p.CachedPages() == 0 {
		t.Fatal("no dirty page cached before the Flush")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if c := p.CachedPages(); c != 0 {
		t.Fatalf("%d pages cached after a Flush, want 0", c)
	}
	for i := 0; i < n; i++ {
		if got, err := b.Get(U64Key(uint64(i))); err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("Get(%d) after a Flush: %d bytes, err=%v", i, len(got), err)
		}
	}
	read := p.CachedPages()
	if read == 0 {
		t.Fatal("reads after the Flush cached no page")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if c := p.CachedPages(); c != read {
		t.Fatalf("a Flush with nothing dirty left %d of %d read pages cached", c, read)
	}

	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xA5}, PageSize)
	if err := p.Write(id, old); err != nil {
		t.Fatal(err)
	}
	held, err := p.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, old) {
		t.Fatal("a slice Read returned changed across a Flush")
	}
	next := bytes.Repeat([]byte{0x5A}, PageSize)
	if err := p.Write(id, next); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, old) {
		t.Fatal("a Write after the Flush reused the buffer a Read returned before it")
	}
	if got, err := p.Read(id); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("Read after the rewrite does not return it (err=%v)", err)
	}
}
