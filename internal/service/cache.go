package service

import (
	"container/list"
	"strings"
	"sync"
)

// CacheStats is a cache's cumulative activity record, exposed via /stats.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	Evictions   int64 `json:"evictions"`   // capacity pressure
	Invalidated int64 `json:"invalidated"` // explicit prefix invalidation
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	CapBytes    int64 `json:"cap_bytes"`
}

// HitRate returns hits / (hits + misses), 0 when idle.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type cacheEntry struct {
	key   string
	val   any
	bytes int64
}

// Cache is a thread-safe LRU cache with byte-budget accounting. It backs
// both the plan-keyed result cache and the UDF materialization cache (it
// satisfies vision.MemoCache). Entries are evicted least-recently-used
// when the byte budget is exceeded. Nothing expires by age: every key
// names the version or generation its value was computed at, so an old
// entry can only serve the same bytes again.
type Cache struct {
	mu  sync.Mutex
	cap int64

	ll    *list.List // front = most recently used; values are *cacheEntry
	index map[string]*list.Element
	bytes int64

	hits, misses, puts, evictions, invalidated int64
}

// NewCache builds a cache holding at most capBytes of accounted value
// bytes.
func NewCache(capBytes int64) *Cache {
	if capBytes < 1 {
		capBytes = 1
	}
	return &Cache{
		cap:   capBytes,
		ll:    list.New(),
		index: make(map[string]*list.Element),
	}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.useLocked(c.index[key])
}

// GetBytes is Get for a key held as bytes: the probe builds no string.
func (c *Cache) GetBytes(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.useLocked(c.index[string(key)])
}

// useLocked counts a probe that found el (nil on a miss) and returns its
// value.
func (c *Cache) useLocked(el *list.Element) (any, bool) {
	if el == nil {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key with the given size estimate, evicting LRU
// entries until the byte budget holds. A value larger than the whole
// budget is not cached.
func (c *Cache) Put(key string, val any, bytes int64) {
	if bytes < 1 {
		bytes = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if bytes > c.cap {
		return
	}
	if el, ok := c.index[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += bytes - e.bytes
		e.val, e.bytes = val, bytes
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, val: val, bytes: bytes})
		c.index[key] = el
		c.bytes += bytes
	}
	c.evictLocked()
}

// Charge adds delta bytes to the entry under key, if the key still holds
// val (a replaced or dropped entry is left alone), then evicts LRU
// entries until the byte budget holds. It accounts for memory a value
// gains after Put, such as a result's encoded head. val must be
// comparable.
func (c *Cache) Charge(key string, val any, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.val != val {
		return
	}
	e.bytes += delta
	c.bytes += delta
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until the byte budget
// holds.
func (c *Cache) evictLocked() {
	for c.bytes > c.cap {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// InvalidatePrefix drops every entry whose key starts with prefix (the
// stale-data hook: result keys embed the collection name, so re-ingesting
// a dataset can purge its cached results eagerly). Returns the number of
// entries dropped.
func (c *Cache) InvalidatePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var doomed []*list.Element
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if strings.HasPrefix(el.Value.(*cacheEntry).key, prefix) {
			doomed = append(doomed, el)
		}
	}
	for _, el := range doomed {
		c.removeLocked(el)
	}
	c.invalidated += int64(len(doomed))
	return len(doomed)
}

// Flush drops every entry, keeping counters.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.index = make(map[string]*list.Element)
	c.bytes = 0
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.index, e.key)
	c.bytes -= e.bytes
}

// Len returns the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Puts: c.puts,
		Evictions: c.evictions, Invalidated: c.invalidated,
		Entries: c.ll.Len(), Bytes: c.bytes, CapBytes: c.cap,
	}
}
