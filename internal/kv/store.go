package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/btree"
)

// Store is a named-bucket key-value database on a single page file. Each
// bucket is a B+ tree; the directory mapping bucket names to tree roots is
// itself a B+ tree whose root lives in the meta page.
type Store struct {
	mu      sync.Mutex
	p       *Pager
	dir     *btree.Tree
	buckets map[string]*Bucket
}

// ErrNotFound is returned for missing keys and buckets.
var ErrNotFound = errors.New("kv: not found")

// Open opens (or creates) the store at path.
func Open(path string) (*Store, error) {
	p, err := OpenPager(path)
	if err != nil {
		return nil, err
	}
	s := &Store{p: p, buckets: make(map[string]*Bucket)}
	s.dir = btree.Open(p, p.RootDir())
	return s, nil
}

// Pager exposes the underlying pager, e.g. for index structures that manage
// their own pages inside the same file.
func (s *Store) Pager() *Pager { return s.p }

// Bucket returns the named bucket, creating it on first use.
func (s *Store) Bucket(name string) (*Bucket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.buckets[name]; ok {
		return b, nil
	}
	var root uint64
	v, err := s.dir.Get([]byte(name))
	switch {
	case err == nil:
		root = binary.LittleEndian.Uint64(v)
	case errors.Is(err, btree.ErrNotFound):
		root = 0
	default:
		return nil, err
	}
	b := &Bucket{s: s, name: name, t: btree.Open(s.p, root)}
	s.buckets[name] = b
	return b, nil
}

// saveRoot records a bucket's (possibly changed) tree root in the directory.
func (s *Store) saveRoot(name string, root uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], root)
	if err := s.dir.Put([]byte(name), v[:]); err != nil {
		return err
	}
	s.p.SetRootDir(s.dir.Root())
	return nil
}

// Flush persists all dirty state to disk. It saves each bucket's root
// under the bucket's lock, taken before the store's as Put takes them,
// so it never saves a root older than one a racing Put has saved.
func (s *Store) Flush() error {
	s.mu.Lock()
	buckets := make([]*Bucket, 0, len(s.buckets))
	for _, b := range s.buckets {
		buckets = append(buckets, b)
	}
	s.mu.Unlock()
	for _, b := range buckets {
		b.mu.Lock()
		err := s.saveRoot(b.name, b.t.Root())
		b.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return s.p.Flush()
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	if err := s.Flush(); err != nil {
		s.p.Close()
		return err
	}
	return s.p.Close()
}

// Bucket is an ordered key-value namespace within a Store.
type Bucket struct {
	mu   sync.Mutex
	s    *Store
	name string
	t    *btree.Tree
}

// Put stores val under key, replacing any existing value.
func (b *Bucket) Put(key, val []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.t.Root()
	if err := b.t.Put(key, val); err != nil {
		return err
	}
	if b.t.Root() != old {
		return b.s.saveRoot(b.name, b.t.Root())
	}
	return nil
}

// Get returns the value under key, or ErrNotFound.
func (b *Bucket) Get(key []byte) ([]byte, error) { return b.GetAppend(nil, key) }

// GetAppend appends the value under key to dst and returns the extended
// slice, or ErrNotFound. The value is copied out of the tree's pages
// into dst, never aliased: a hot reader that passes the same buffer
// (buf[:0]) on every call reads without allocating, and owns the result
// until it reuses the buffer. On error the returned slice is nil and
// dst's contents are unspecified.
func (b *Bucket) GetAppend(dst, key []byte) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, err := b.t.GetAppend(dst, key)
	if errors.Is(err, btree.ErrNotFound) {
		return nil, fmt.Errorf("%w: bucket %q key %x", ErrNotFound, b.name, key)
	}
	return v, err
}

// Scan calls fn over entries with key in [lo, hi) in key order; nil bounds
// are unbounded. fn returning false stops the scan. k aliases the tree's
// page and is valid only during the call (copy it to keep it); v is a
// copy.
func (b *Bucket) Scan(lo, hi []byte, fn func(k, v []byte) bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.t.Scan(lo, hi, fn)
}

// Len counts entries (O(n)).
func (b *Bucket) Len() (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.t.Len()
}

// U64Key encodes an integer as a big-endian sortable key, the store-wide
// convention for frame numbers and patch ids.
func U64Key(v uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], v)
	return k[:]
}

// ParseU64Key decodes a key written by U64Key.
func ParseU64Key(k []byte) uint64 {
	if len(k) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(k)
}
