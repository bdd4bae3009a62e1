package service

import (
	"fmt"
	"testing"
)

func TestCacheLRUEvictionUnderPressure(t *testing.T) {
	c := NewCache(100)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 10)
	}
	if got := c.Stats().Bytes; got != 100 {
		t.Fatalf("bytes = %d, want 100", got)
	}
	// Touch k0 so it is MRU, then overflow: k1 (the LRU) must go first.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before pressure")
	}
	c.Put("k10", 10, 10)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("LRU entry k1 survived eviction")
	}
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("recently used k0 was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 100 {
		t.Fatalf("bytes = %d exceeds cap", st.Bytes)
	}
	// A value larger than the whole budget is not cached.
	c.Put("huge", 0, 1000)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversize value was cached")
	}
}

func TestCacheUpdateAccounting(t *testing.T) {
	c := NewCache(100)
	c.Put("k", "a", 30)
	c.Put("k", "b", 50) // replace, not duplicate
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 50 {
		t.Fatalf("entries=%d bytes=%d, want 1/50", st.Entries, st.Bytes)
	}
	if v, _ := c.Get("k"); v.(string) != "b" {
		t.Fatalf("value = %v, want b", v)
	}
}

// TestCacheCharge: Charge grows only the entry that still holds the
// charged value, then evicts LRU entries down to the budget.
func TestCacheCharge(t *testing.T) {
	c := NewCache(100)
	a, b, stale := new(int), new(int), new(int)
	c.Put("a", a, 40)
	c.Put("b", b, 40)
	c.Charge("b", stale, 50) // b holds another value: no change
	c.Charge("gone", a, 50)  // no such key: no change
	if st := c.Stats(); st.Bytes != 80 || st.Evictions != 0 {
		t.Fatalf("mismatched charges changed the cache: %+v", st)
	}
	c.Charge("b", b, 30) // 110 > 100: evicts the LRU entry, a
	st := c.Stats()
	if st.Bytes != 70 || st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after charging b: %+v, want b alone at 70 bytes after one eviction", st)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("the LRU entry survived the charge")
	}
}

func TestCacheInvalidatePrefix(t *testing.T) {
	c := NewCache(1 << 20)
	c.Put("q:traffic.dets:abc", 1, 10)
	c.Put("q:traffic.dets:def", 2, 10)
	c.Put("q:pc.images:abc", 3, 10)
	if n := c.InvalidatePrefix("q:traffic.dets:"); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if _, ok := c.Get("q:traffic.dets:abc"); ok {
		t.Fatal("invalidated entry still present")
	}
	if _, ok := c.Get("q:pc.images:abc"); !ok {
		t.Fatal("unrelated entry was invalidated")
	}
	if got := c.Stats().Invalidated; got != 2 {
		t.Fatalf("invalidated counter = %d, want 2", got)
	}
}

func TestCacheFlushKeepsCounters(t *testing.T) {
	c := NewCache(1 << 20)
	c.Put("a", 1, 10)
	c.Get("a")
	c.Get("miss")
	c.Flush()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("flush left entries=%d bytes=%d", st.Entries, st.Bytes)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("flush reset counters: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", st.HitRate())
	}
}
