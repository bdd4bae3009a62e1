package btree_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/btree"
	"repro/internal/kv"
)

func newPager(t testing.TB) *kv.Pager {
	t.Helper()
	p, err := kv.OpenPager(filepath.Join(t.TempDir(), "t.db"))
	if err != nil {
		t.Fatalf("open pager: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestEmptyTree(t *testing.T) {
	tr := btree.New(newPager(t))
	if _, err := tr.Get([]byte("k")); err != btree.ErrNotFound {
		t.Fatalf("Get on empty tree: err = %v, want btree.ErrNotFound", err)
	}
	if err := tr.Delete([]byte("k")); err != btree.ErrNotFound {
		t.Fatalf("Delete on empty tree: err = %v, want btree.ErrNotFound", err)
	}
	n, err := tr.Len()
	if err != nil || n != 0 {
		t.Fatalf("Len = %d, %v; want 0, nil", n, err)
	}
	if c := tr.First(); c.Valid() {
		t.Fatal("cursor on empty tree is Valid")
	}
}

func TestPutGetSingle(t *testing.T) {
	tr := btree.New(newPager(t))
	if err := tr.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Get([]byte("alpha"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := tr.Get([]byte("beta")); err != btree.ErrNotFound {
		t.Fatalf("missing key: err = %v", err)
	}
}

func TestReplaceValue(t *testing.T) {
	tr := btree.New(newPager(t))
	key := []byte("k")
	for i := 0; i < 10; i++ {
		val := []byte(fmt.Sprintf("value-%d", i))
		if err := tr.Put(key, val); err != nil {
			t.Fatal(err)
		}
		got, err := tr.Get(key)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("iteration %d: Get = %q, %v; want %q", i, got, err, val)
		}
	}
	if n, _ := tr.Len(); n != 1 {
		t.Fatalf("Len = %d after replacements, want 1", n)
	}
}

func TestManyKeysSplitsAndOrder(t *testing.T) {
	tr := btree.New(newPager(t))
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v := []byte(fmt.Sprintf("val-%d", i))
		if err := tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	// Every key readable.
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v, err := tr.Get(k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if want := fmt.Sprintf("val-%d", i); string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
	}
	// Full scan is sorted and complete.
	var keys []string
	if err := tr.Scan(nil, nil, func(k, _ []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scan returned %d keys, want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("scan output is not sorted")
	}
}

func TestRangeScan(t *testing.T) {
	tr := btree.New(newPager(t))
	for i := 0; i < 1000; i++ {
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], uint64(i))
		if err := tr.Put(k[:], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := make([]byte, 8), make([]byte, 8)
	binary.BigEndian.PutUint64(lo, 100)
	binary.BigEndian.PutUint64(hi, 200)
	var got []uint64
	if err := tr.Scan(lo, hi, func(k, _ []byte) bool {
		got = append(got, binary.BigEndian.Uint64(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("range scan returned %d entries, want 100", len(got))
	}
	for i, v := range got {
		if v != uint64(100+i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, 100+i)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := btree.New(newPager(t))
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("%03d", i)), nil)
	}
	count := 0
	tr.Scan(nil, nil, func(_, _ []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early-stop scan visited %d entries, want 10", count)
	}
}

// TestSplitUnevenEntrySizes: a leaf of many tiny entries followed by a few
// near-maxInline ones must split where both halves fit a page — halving
// by key count would put every large value in one half and overflow it.
func TestSplitUnevenEntrySizes(t *testing.T) {
	tr := btree.New(newPager(t))
	want := map[string][]byte{}
	put := func(k string, v []byte) {
		t.Helper()
		if err := tr.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < 40; i++ {
		put(fmt.Sprintf("a%03d", i), []byte{byte(i)})
	}
	for i := 0; i < 8; i++ {
		put(fmt.Sprintf("b%03d", i), bytes.Repeat([]byte{byte(i)}, 1000))
	}
	for k, v := range want {
		got, err := tr.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) after uneven split: %d bytes, err=%v", k, len(got), err)
		}
	}
}

func TestLargeValuesOverflow(t *testing.T) {
	tr := btree.New(newPager(t))
	vals := map[string][]byte{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("big-%03d", i)
		v := make([]byte, 2000+rng.Intn(20000)) // always > inline threshold
		rng.Read(v)
		vals[k] = v
		if err := tr.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	for k, want := range vals {
		got, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%s): value mismatch (%d vs %d bytes)", k, len(got), len(want))
		}
	}
}

func TestDelete(t *testing.T) {
	tr := btree.New(newPager(t))
	for i := 0; i < 500; i++ {
		tr.Put([]byte(fmt.Sprintf("%04d", i)), []byte("v"))
	}
	for i := 0; i < 500; i += 2 {
		if err := tr.Delete([]byte(fmt.Sprintf("%04d", i))); err != nil {
			t.Fatalf("Delete(%04d): %v", i, err)
		}
	}
	for i := 0; i < 500; i++ {
		_, err := tr.Get([]byte(fmt.Sprintf("%04d", i)))
		if i%2 == 0 && err != btree.ErrNotFound {
			t.Fatalf("deleted key %04d still present (err=%v)", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("kept key %04d lost: %v", i, err)
		}
	}
	if n, _ := tr.Len(); n != 250 {
		t.Fatalf("Len = %d, want 250", n)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	p, err := kv.OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := btree.New(p)
	for i := 0; i < 300; i++ {
		tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	root := tr.Root()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := kv.OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	tr2 := btree.Open(p2, root)
	for i := 0; i < 300; i++ {
		v, err := tr2.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after reopen Get(k%04d) = %q, %v", i, v, err)
		}
	}
}

func TestKeyTooLong(t *testing.T) {
	tr := btree.New(newPager(t))
	if err := tr.Put(make([]byte, 600), nil); err == nil {
		t.Fatal("Put with 600-byte key succeeded, want error")
	}
}

// TestQuickModelCheck drives the tree with random operations against a map
// model and checks full agreement.
func TestQuickModelCheck(t *testing.T) {
	tr := btree.New(newPager(t))
	model := map[string]string{}
	rng := rand.New(rand.NewSource(42))
	keyspace := func() string { return fmt.Sprintf("k%03d", rng.Intn(400)) }
	for op := 0; op < 20000; op++ {
		k := keyspace()
		switch rng.Intn(3) {
		case 0, 1: // put
			v := fmt.Sprintf("v%d", rng.Int63())
			model[k] = v
			if err := tr.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		case 2: // delete
			_, inModel := model[k]
			err := tr.Delete([]byte(k))
			if inModel && err != nil {
				t.Fatalf("Delete(%s): %v, model has it", k, err)
			}
			if !inModel && err != btree.ErrNotFound {
				t.Fatalf("Delete(%s): %v, model lacks it", k, err)
			}
			delete(model, k)
		}
	}
	// Final agreement: every model entry present with right value, scan count matches.
	for k, v := range model {
		got, err := tr.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("final Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	if n, _ := tr.Len(); n != len(model) {
		t.Fatalf("Len = %d, model has %d", n, len(model))
	}
}

// TestQuickPutGetRoundTrip property: any put key/value pair round-trips.
func TestQuickPutGetRoundTrip(t *testing.T) {
	tr := btree.New(newPager(t))
	f := func(k []byte, v []byte) bool {
		if len(k) == 0 || len(k) > 512 {
			return true // skip out-of-contract keys
		}
		if err := tr.Put(k, v); err != nil {
			return false
		}
		got, err := tr.Get(k)
		return err == nil && bytes.Equal(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorSeekMidRange(t *testing.T) {
	tr := btree.New(newPager(t))
	for i := 0; i < 100; i += 2 { // even keys only
		tr.Put([]byte(fmt.Sprintf("%03d", i)), nil)
	}
	c := tr.Seek([]byte("051")) // odd: should land on 052
	if !c.Valid() {
		t.Fatal("cursor invalid")
	}
	if string(c.Key()) != "052" {
		t.Fatalf("Seek(051) landed on %s, want 052", c.Key())
	}
}
