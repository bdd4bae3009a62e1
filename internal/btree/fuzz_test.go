package btree_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/kv"
)

// FuzzBTreePage hands the page parser arbitrary bytes as a tree's root
// page and the one page it may link to: every operation must return a
// result or an error — never panic, never loop.
func FuzzBTreePage(f *testing.F) {
	leaf := make([]byte, kv.PageSize) // one entry "k" -> "v"
	leaf[0], leaf[1] = 1, 1
	copy(leaf[11:], []byte{1, 0, 1, 0, 0, 0, 'k', 'v'})
	inner := make([]byte, kv.PageSize) // children 2 and 3 around "m"
	inner[0], inner[1], inner[3] = 2, 1, 2
	copy(inner[11:], []byte{1, 0, 'm', 3})
	f.Add(leaf)
	f.Add(append(inner, leaf...))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newPager(t)
		for pg := 0; pg < 2; pg++ { // pages 1 and 2
			id, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			page := make([]byte, kv.PageSize)
			if len(data) > pg*kv.PageSize {
				copy(page, data[pg*kv.PageSize:])
			}
			if err := p.Write(id, page); err != nil {
				t.Fatal(err)
			}
		}
		tr := btree.Open(p, 1)
		keys := [][]byte{nil, {0}, []byte("k"), []byte("m"), kv.U64Key(7), bytes.Repeat([]byte{0xff}, 9)}
		for _, k := range keys {
			tr.Get(k)
			c := tr.Seek(k)
			for n := 0; c.Valid() && n < 64; n++ {
				c.Key()
				c.Value()
				c.Next()
			}
		}
		tr.Len()
		tr.Scan([]byte("a"), []byte("z"), func(_, _ []byte) bool { return true })
		for _, k := range keys {
			tr.Put(k, []byte("v"))
			tr.Put(k, make([]byte, 1100))
			tr.Delete(k)
		}
		tr.CheckPages()
	})
}

// FuzzBTreeOps decodes the input as a stream of three-byte operations —
// ascending runs of PatchID-like keys, random keys (some up to the
// 512-byte limit) in a region around them, deletes, gets and range scans,
// with values from empty through near-maxInline to overflow size — and
// checks the tree against a sorted-map model: every answer agrees, and
// after every operation every node fits its page.
func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0, 15, 3, 0, 15, 4, 2, 200, 5, 3, 200, 0, 4, 200, 0, 5, 0, 255})
	f.Add(bytes.Repeat([]byte{1, 15, 4, 2, 131, 5}, 20))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*300 {
			ops = ops[:3*300]
		}
		tr := btree.New(newPager(t))
		m := model{}
		next := uint64(1) << 19 // ascending runs start mid-way through the random keys
		for i := 0; i+3 <= len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			put := func(k, v []byte) {
				if err := tr.Put(k, v); err != nil {
					t.Fatalf("op %d: Put(%x): %v", i/3, k, err)
				}
				m.put(k, v)
			}
			switch op % 6 {
			case 0, 1:
				for r := 0; r <= int(a%16); r++ {
					put(kv.U64Key(next), fuzzVal(b, i+r))
					next++
				}
			case 2:
				put(fuzzKey(a, b), fuzzVal(b, i))
			case 3:
				k := fuzzKey(a, b)
				_, had := m[string(k)]
				if err := tr.Delete(k); (err == nil) != had {
					t.Fatalf("op %d: Delete(%x) = %v, model has it: %v", i/3, k, err, had)
				}
				delete(m, string(k))
			case 4:
				k := fuzzKey(a, b)
				v, err := tr.Get(k)
				if want, had := m[string(k)]; (err == nil) != had || !bytes.Equal(v, want) {
					t.Fatalf("op %d: Get(%x) = %d bytes, %v; model %d bytes, %v", i/3, k, len(v), err, len(want), had)
				}
			case 5:
				lo, hi := fuzzKey(a, 0), fuzzKey(b, 0)
				var got []string
				if err := tr.Scan(lo, hi, func(k, _ []byte) bool { got = append(got, string(k)); return true }); err != nil {
					t.Fatal(err)
				}
				var want []string
				for k := range m {
					if k >= string(lo) && k < string(hi) {
						want = append(want, k)
					}
				}
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: Scan[%x, %x) = %d keys, model %d", i/3, lo, hi, len(got), len(want))
				}
			}
			if err := tr.CheckPages(); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
		m.check(t, tr)
	})
}

// fuzzKey maps two bytes onto a key around the ascending runs; with b's
// top bit set it is padded toward the 512-byte key limit.
func fuzzKey(a, b byte) []byte {
	k := binary.BigEndian.AppendUint64(nil, uint64(a)<<12)
	if b&0x80 != 0 {
		k = append(k, bytes.Repeat([]byte{b}, int(b&0x3f)*8)...)
	}
	return k
}

// fuzzVal picks a value size class from b: empty, tiny, patch-sized, just
// under and at maxInline (1024), just past it, and multi-page overflow.
func fuzzVal(b byte, seed int) []byte {
	n := []int{0, int(b % 16), 100 + int(b), 230, 1000 + int(b%25), 1024, 1025 + int(b%8), 5000}[b%8]
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(seed + i)
	}
	return v
}
