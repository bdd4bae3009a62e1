package service

import (
	"container/list"
	"strings"
	"sync"
	"time"
)

// CacheStats is a cache's cumulative activity record, exposed via /stats.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	Evictions   int64 `json:"evictions"`   // capacity pressure
	Expirations int64 `json:"expirations"` // TTL lapses observed on Get
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
	key     string
	val     any
	bytes   int64
	expires time.Time // zero = never
}

// Cache is a thread-safe LRU cache with byte-budget accounting and
// optional TTL expiry. It backs both the plan-keyed result cache and the
// UDF materialization cache (it satisfies vision.MemoCache). Entries are
// evicted least-recently-used when the byte budget is exceeded; expired
// entries are dropped lazily on access.
type Cache struct {
	mu  sync.Mutex
	cap int64
	ttl time.Duration // zero = no expiry
	now func() time.Time

	ll    *list.List // front = most recently used; values are *cacheEntry
	index map[string]*list.Element
	bytes int64

	hits, misses, puts, evictions, expirations, invalidated int64
}

// NewCache builds a cache holding at most capBytes of accounted value
// bytes; entries older than ttl expire (ttl <= 0 disables expiry).
func NewCache(capBytes int64, ttl time.Duration) *Cache {
	if capBytes < 1 {
		capBytes = 1
	}
	return &Cache{
		cap:   capBytes,
		ttl:   ttl,
		now:   time.Now,
		ll:    list.New(),
		index: make(map[string]*list.Element),
	}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(el)
		c.expirations++
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return e.val, true
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
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if el, ok := c.index[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += bytes - e.bytes
		e.val, e.bytes, e.expires = val, bytes, expires
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, val: val, bytes: bytes, expires: expires})
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
		Evictions: c.evictions, Expirations: c.expirations, Invalidated: c.invalidated,
		Entries: c.ll.Len(), Bytes: c.bytes, CapBytes: c.cap,
	}
}

// setClock injects a fake clock (tests).
func (c *Cache) setClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}
