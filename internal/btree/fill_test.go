package btree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/kv"
)

// model is the reference a tree is checked against: a map, read in key
// order.
type model map[string][]byte

func (m model) put(k, v []byte) { m[string(k)] = bytes.Clone(v) }

// check compares the full Scan, every Get and Len with m, then the tree's
// page structure.
func (m model) check(t testing.TB, tr *btree.Tree) {
	t.Helper()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	i := 0
	err := tr.Scan(nil, nil, func(k, v []byte) bool {
		if i >= len(keys) || string(k) != keys[i] || !bytes.Equal(v, m[keys[i]]) {
			t.Fatalf("scan entry %d: key %x (%d-byte value), model has %d keys", i, k, len(v), len(keys))
		}
		i++
		return true
	})
	if err != nil || i != len(keys) {
		t.Fatalf("scan returned %d of %d entries, err=%v", i, len(keys), err)
	}
	for _, k := range keys {
		if v, err := tr.Get([]byte(k)); err != nil || !bytes.Equal(v, m[k]) {
			t.Fatalf("Get(%x) = %d bytes, %v; model has %d", k, len(v), err, len(m[k]))
		}
	}
	if err := tr.CheckPages(); err != nil {
		t.Fatal(err)
	}
}

// patchVal is a value the size of a stored patch row.
func patchVal(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 230) }

// TestAscendingInsertsPackLeaves: PatchID-ordered inserts split at the
// right edge, so the leaves they leave behind are full — the tree uses
// at most 1.1x the pages its payload needs (halving every split used
// about 2x).
func TestAscendingInsertsPackLeaves(t *testing.T) {
	p := newPager(t)
	tr := btree.New(p)
	const n = 20000
	m := model{}
	payload := 0
	for i := 0; i < n; i++ {
		k, v := kv.U64Key(uint64(i)), patchVal(i)
		if err := tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
		m.put(k, v)
		payload += 6 + len(k) + len(v) // entry header, key, value
	}
	need := (payload + kv.PageSize - 1) / kv.PageSize
	used := int(p.NumPages()) - 1 // less the meta page
	if float64(used) > 1.1*float64(need) {
		t.Fatalf("ascending inserts use %d pages for a %d-page payload (%.2fx)", used, need, float64(used)/float64(need))
	}
	m.check(t, tr)
}

// TestInsertOrdersAgreeWithModel: whatever the insert order — ascending,
// descending, random, or ascending runs in several key regions at once —
// the tree reads back exactly the model and every node fits its page,
// with values from empty through near-maxInline to overflow size and
// keys up to the 512-byte limit.
func TestInsertOrdersAgreeWithModel(t *testing.T) {
	const n = 3000
	val := func(i int) []byte {
		switch i % 9 {
		case 0:
			return nil
		case 4:
			return bytes.Repeat([]byte{byte(i)}, 1000+i%25) // up to maxInline
		case 7:
			return bytes.Repeat([]byte{byte(i)}, 1025+i%3000) // spilled
		}
		return patchVal(i)[:i%230]
	}
	key := func(i int) []byte {
		k := kv.U64Key(uint64(i))
		if i%13 == 0 {
			k = append(k, bytes.Repeat([]byte{'x'}, 504)...) // a 512-byte key
		}
		return k
	}
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for name, at := range map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return n - 1 - i },
		"random":     func(i int) int { return perm[i] },
		"interleaved": func(i int) int { // three ascending runs, round robin
			return (i%3)*n + i/3
		},
	} {
		t.Run(name, func(t *testing.T) {
			tr := btree.New(newPager(t))
			m := model{}
			for i := 0; i < n; i++ {
				k, v := key(at(i)), val(at(i))
				if err := tr.Put(k, v); err != nil {
					t.Fatal(err)
				}
				m.put(k, v)
				if i%500 == 0 {
					if err := tr.CheckPages(); err != nil {
						t.Fatalf("after %d inserts: %v", i+1, err)
					}
				}
			}
			m.check(t, tr)
		})
	}
}

// TestFreeReturnsEveryPage: a freed tree — nodes and overflow chains —
// hands all its pages back, so building it again does not grow the file.
func TestFreeReturnsEveryPage(t *testing.T) {
	p := newPager(t)
	build := func() *btree.Tree {
		tr := btree.New(p)
		for i := 0; i < 2000; i++ {
			v := patchVal(i)
			if i%50 == 0 {
				v = bytes.Repeat(v, 20) // spilled
			}
			if err := tr.Put(kv.U64Key(uint64(i*7919%2000)), v); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	tr := build()
	pages := p.NumPages()
	for round := 0; round < 5; round++ {
		if err := tr.Free(); err != nil {
			t.Fatal(err)
		}
		if tr.Root() != 0 {
			t.Fatalf("freed tree has root %d", tr.Root())
		}
		if n, err := tr.Len(); err != nil || n != 0 {
			t.Fatalf("freed tree Len = %d, %v", n, err)
		}
		tr = build()
		if got := p.NumPages(); got != pages {
			t.Fatalf("round %d: rebuild after Free grew the file from %d to %d pages", round, pages, got)
		}
	}
}

// halfSplitOps replays the writes that produced testdata/halfsplit.db:
// ascending 8-byte keys with values from empty to past maxInline, random
// keys in a second key region, replacements (some growing into overflow
// chains) and deletes.
func halfSplitOps(put func(k, v []byte), del func(k []byte)) {
	val := func(n int, seed int) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(seed + i)
		}
		return v
	}
	size := func(i int) int {
		switch {
		case i%97 == 96:
			return 1025 + 2000*(i%2)
		case i%40 == 39:
			return 1000 + i%25
		}
		return []int{0, 7, 60, 180, 240}[i%5]
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 500; i++ {
		put(kv.U64Key(uint64(i)), val(size(i), i))
		if i%3 == 0 {
			put([]byte(fmt.Sprintf("r%08d", rng.Intn(1e8))), val(12, i))
		}
	}
	for i := 0; i < 500; i += 11 {
		put(kv.U64Key(uint64(i)), val(size(i+1)+900, i))
	}
	for i := 0; i < 500; i += 5 {
		del(kv.U64Key(uint64(i)))
	}
}

// TestHalfSplitStoreReadsIdentically pins the page format: a store written
// by the tree before the right-edge split rule, when every split halved
// its node, reopens and reads back exactly what was written, and keeps
// serving writes under the new rule.
func TestHalfSplitStoreReadsIdentically(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "halfsplit.db"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.db")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := kv.OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m := model{}
	halfSplitOps(m.put, func(k []byte) { delete(m, string(k)) })
	tr := btree.Open(p, p.RootDir())
	m.check(t, tr)

	for i := 500; i < 1500; i++ {
		k, v := kv.U64Key(uint64(i)), patchVal(i)
		if err := tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
		m.put(k, v)
	}
	for i := 1; i < 500; i += 5 {
		if err := tr.Delete(kv.U64Key(uint64(i))); err != nil {
			t.Fatal(err)
		}
		delete(m, string(kv.U64Key(uint64(i))))
	}
	m.check(t, tr)
}
