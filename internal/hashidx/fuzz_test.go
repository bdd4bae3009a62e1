package hashidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/kv"
)

func newPager(t testing.TB) *kv.Pager {
	t.Helper()
	p, err := kv.OpenPager(filepath.Join(t.TempDir(), "h.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// Fuzzed page layout: the input is cut into the meta page (page 1), the
// directory's overflow page (2) and two bucket pages (3 and 4). The meta
// and directory pages read only a short prefix, so they take fuzzPrefix
// bytes each and the first bucket a whole page; short inputs are
// zero-padded.
const fuzzPrefix = 32

// fuzzPages lays out a meta page for a directory of the given bucket ids,
// its overflow page, and the two bucket pages, as FuzzHashBucketPage
// reads them.
func fuzzPages(dir []uint64, b3, b4 []byte) []byte {
	meta := make([]byte, fuzzPrefix)
	meta[0] = byte(len(dir) / 2) // depth 0 or 1
	binary.LittleEndian.PutUint64(meta[9:], 2)
	binary.LittleEndian.PutUint32(meta[17:], uint32(8*len(dir)))
	ovfl := make([]byte, fuzzPrefix)
	binary.LittleEndian.PutUint32(ovfl[8:], uint32(8*len(dir)))
	for i, id := range dir {
		binary.LittleEndian.PutUint64(ovfl[12+8*i:], id)
	}
	out := append(meta, ovfl...)
	out = append(out, b3...)
	if b4 != nil {
		out = append(out, make([]byte, pageSize-len(b3))...)
		out = append(out, b4...)
	}
	return out
}

// fuzzBucket is a bucket page prefix: local depth, overflow link and
// entries.
func fuzzBucket(local uint8, next uint64, kv ...string) []byte {
	b := &bucket{local: local, next: next}
	for i := 0; i+1 < len(kv); i += 2 {
		b.keys = append(b.keys, []byte(kv[i]))
		b.vals = append(b.vals, []byte(kv[i+1]))
	}
	var page [pageSize]byte
	encodeBucket(&page, b)
	return page[:b.size()]
}

// FuzzHashBucketPage hands the page parser arbitrary bytes as an index's
// meta page, directory and bucket pages: every operation must return a
// result or an error — never panic, never loop.
func FuzzHashBucketPage(f *testing.F) {
	f.Add(fuzzPages([]uint64{3}, fuzzBucket(0, 0, "k", "v", "m", "value"), nil))
	f.Add(fuzzPages([]uint64{3, 4}, fuzzBucket(1, 0, "k", "v"), fuzzBucket(1, 0, "m", "w")))
	f.Add(fuzzPages([]uint64{3}, fuzzBucket(maxGlobal, 4, "a", "b"), fuzzBucket(maxGlobal, 3, "c", "d")))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newPager(t)
		for pg, lim := 0, 0; pg < 4; pg++ {
			id, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			from := lim
			lim += fuzzPrefix
			if pg >= 2 {
				lim += pageSize - fuzzPrefix
			}
			page := make([]byte, pageSize)
			if from < len(data) {
				copy(page, data[from:min(lim, len(data))])
			}
			if err := p.Write(id, page); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := Open(p, 1)
		if err != nil {
			return
		}
		keys := [][]byte{nil, []byte("k"), []byte("m"), []byte("a"), []byte("c"), bytes.Repeat([]byte{0xff}, 300)}
		buf := make([]byte, 0, 64)
		for _, k := range keys {
			ix.Get(k)
			ix.GetAppend(buf[:0], k)
		}
		for _, k := range keys {
			ix.Put(k, []byte("v"))
			ix.Put(k, make([]byte, 1100))
			ix.Put(k, make([]byte, maxEntryBytes-entryHdr-len(k)))
			ix.Delete(k)
		}
		ix.Flush()
		ix.Free()
	})
}

// FuzzHashOps decodes the input as a stream of three-byte operations —
// puts, same-size replacements, growing replacements (some past their
// page, which deletes and reinserts), deletes and gets over 256 keys, some
// padded to ~500 bytes, with values from empty to a whole page — and
// checks the index against a map model. After every operation every
// reachable bucket page must be exactly the page writeBucket writes for
// its decoded contents, so the in-place splice writes canonical pages.
func FuzzHashOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 3, 1, 1, 0, 2, 1, 4, 4, 1, 0, 3, 2, 0, 4, 2, 0})
	f.Add(bytes.Repeat([]byte{0, 7, 4, 2, 7, 255, 3, 7, 0, 0, 135, 3}, 16))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*300 {
			ops = ops[:3*300]
		}
		p := newPager(t)
		ix, err := Create(p)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string][]byte{}
		for i := 0; i+3 <= len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			k := fuzzKey(a)
			old, had := m[string(k)]
			put := func(n int) {
				v := fuzzVal(k, n, i)
				if err := ix.Put(k, v); err != nil {
					t.Fatalf("op %d: Put(%x, %d bytes): %v", i/3, k, len(v), err)
				}
				m[string(k)] = v
			}
			switch op % 5 {
			case 0:
				put([]int{0, int(b % 16), 100 + int(b), 1000 + int(b), 3000 + int(b%64), pageSize}[b%6])
			case 1:
				put(len(old))
			case 2:
				put(len(old) + 1 + 16*int(b))
			case 3:
				if err := ix.Delete(k); (err == nil) != had || err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: Delete(%x) = %v, model has it: %v", i/3, k, err, had)
				}
				delete(m, string(k))
			case 4:
				v, err := ix.Get(k)
				if (err == nil) != had || !bytes.Equal(v, old) {
					t.Fatalf("op %d: Get(%x) = %d bytes, %v; model %d bytes, %v", i/3, k, len(v), err, len(old), had)
				}
			}
			if ix.Len() != len(m) {
				t.Fatalf("op %d: Len %d, model %d", i/3, ix.Len(), len(m))
			}
			if err := checkCanonical(ix); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(p, ix.Meta())
		if err != nil {
			t.Fatal(err)
		}
		if re.Len() != len(m) {
			t.Fatalf("reopened Len %d, model %d", re.Len(), len(m))
		}
		for k, want := range m {
			if v, err := re.Get([]byte(k)); err != nil || !bytes.Equal(v, want) {
				t.Fatalf("reopened Get(%x) = %d bytes, %v; model %d bytes", k, len(v), err, len(want))
			}
		}
	})
}

// fuzzKey maps a byte onto one of 256 keys; with its top bit set the key
// is padded toward 500 bytes.
func fuzzKey(a byte) []byte {
	k := []byte{'k', a}
	if a&0x80 != 0 {
		k = append(k, bytes.Repeat([]byte{a}, int(a&0x3f)*8)...)
	}
	return k
}

// fuzzVal is an n-byte value for key k, clamped to what fits a page with
// the key, its content varying with seed.
func fuzzVal(k []byte, n, seed int) []byte {
	n = min(n, maxEntryBytes-entryHdr-len(k))
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(seed + i)
	}
	return v
}

// checkCanonical reports the first bucket page reachable from the
// directory that differs from writeBucket(readBucket(page)).
func checkCanonical(ix *Index) error {
	seen := map[uint64]bool{}
	var canon [pageSize]byte
	for _, id := range ix.dir {
		for id != 0 && !seen[id] {
			seen[id] = true
			b, err := readBucket(ix.p, id)
			if err != nil {
				return fmt.Errorf("bucket %d: %v", id, err)
			}
			buf, err := ix.p.Read(id)
			if err != nil {
				return err
			}
			encodeBucket(&canon, b)
			if !bytes.Equal(buf, canon[:]) {
				return fmt.Errorf("bucket %d is not the page its %d entries encode to", id, len(b.keys))
			}
			id = b.next
		}
	}
	return nil
}
