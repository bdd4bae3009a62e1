// Package kv implements the embedded page-based storage engine DeepLens
// uses wherever the original prototype used BerkeleyDB: the Frame File.
// A database keeps its catalog and rows in files of its own (see
// internal/core), which imports a page file that held them before. A
// Store is a single file of fixed-size pages with a meta page, a free
// list, and a directory of named buckets; each bucket is an on-disk B+
// tree (see internal/btree) rooted at a page in this file.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// PageSize is the fixed size of all pages in a store file.
const PageSize = 4096

// Magic identifies a DeepLens store file.
const Magic = 0xD331E45D

const metaPage = 0

// Errors returned by the pager.
var (
	ErrBadMagic   = errors.New("kv: not a deeplens store file")
	ErrBadPage    = errors.New("kv: page id out of range")
	ErrClosed     = errors.New("kv: store is closed")
	ErrCorruptVal = errors.New("kv: corrupt overflow chain")
)

// Pager manages fixed-size pages in a single file. In memory it keeps a
// write-back buffer of dirty pages, held until eviction or a Flush writes
// them to the file, and a read cache of pages read from the file; the two
// share one cap of maxCache pages, kept by an approximate LRU. A page
// that is written back is dropped, not kept as a clean copy: the layers
// above (the row cache, the column store) already serve every read of
// committed rows. It is safe for concurrent use.
type Pager struct {
	mu       sync.Mutex
	f        *os.File
	npages   uint64
	freeHead uint64 // first page of free list, 0 = none
	cache    map[uint64]*cachedPage
	maxCache int
	clock    uint64
	closed   bool
	// rootDir holds the page id of the bucket-directory tree root; it is
	// owned by Store but persisted via the meta page alongside pager state.
	rootDir uint64

	// reads counts every page read served (cache hit or disk), so callers
	// can assert access patterns — e.g. that a columnar scan over a
	// tiered column store reads no page.
	reads atomic.Int64
}

type cachedPage struct {
	buf   []byte
	dirty bool
	used  uint64
}

// OpenPager opens (or creates) the page file at path.
func OpenPager(path string) (*Pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kv: open %s: %w", path, err)
	}
	p := &Pager{f: f, cache: make(map[uint64]*cachedPage), maxCache: 4096}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		p.npages = 1
		if err := p.writeMeta(); err != nil {
			f.Close()
			return nil, err
		}
		return p, nil
	}
	if err := p.readMeta(); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

func (p *Pager) writeMeta() error {
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	binary.LittleEndian.PutUint64(buf[4:], p.npages)
	binary.LittleEndian.PutUint64(buf[12:], p.freeHead)
	binary.LittleEndian.PutUint64(buf[20:], p.rootDir)
	_, err := p.f.WriteAt(buf, metaPage*PageSize)
	return err
}

func (p *Pager) readMeta() error {
	buf := make([]byte, PageSize)
	if _, err := p.f.ReadAt(buf, metaPage*PageSize); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != Magic {
		return ErrBadMagic
	}
	p.npages = binary.LittleEndian.Uint64(buf[4:])
	p.freeHead = binary.LittleEndian.Uint64(buf[12:])
	p.rootDir = binary.LittleEndian.Uint64(buf[20:])
	return nil
}

// Read returns the contents of page id. The returned slice is the cached
// page buffer, not a copy: callers must not modify it (Write is the only
// way to change a page). It keeps its contents until the page is next
// written or freed — eviction or a Flush drops a buffer from the cache
// but never reuses it — so a caller that serializes its own writes of the
// page may read the slice in place until then (the B+ tree reads leaves
// this way).
func (p *Pager) Read(id uint64) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readLocked(id)
}

func (p *Pager) readLocked(id uint64) ([]byte, error) {
	if p.closed {
		return nil, ErrClosed
	}
	if id == 0 || id >= p.npages {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrBadPage, id, p.npages)
	}
	p.reads.Add(1)
	if cp, ok := p.cache[id]; ok {
		p.clock++
		cp.used = p.clock
		return cp.buf, nil
	}
	buf := make([]byte, PageSize)
	if _, err := p.f.ReadAt(buf, int64(id)*PageSize); err != nil {
		return nil, err
	}
	p.insertCache(id, buf, false)
	return buf, nil
}

// Write stores buf (length PageSize) as the contents of page id. It
// copies buf, so the caller may reuse it on return. A page still cached
// is overwritten in place; one that eviction or a Flush dropped gets a
// fresh buffer. So a slice an earlier Read returned may keep the old
// contents: read the page again to see a write.
func (p *Pager) Write(id uint64, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writeLocked(id, buf)
}

func (p *Pager) writeLocked(id uint64, buf []byte) error {
	if p.closed {
		return ErrClosed
	}
	if len(buf) != PageSize {
		return fmt.Errorf("kv: write of %d bytes, want %d", len(buf), PageSize)
	}
	if id == 0 || id >= p.npages {
		return fmt.Errorf("%w: %d (have %d)", ErrBadPage, id, p.npages)
	}
	if cp, ok := p.cache[id]; ok {
		copy(cp.buf, buf)
		cp.dirty = true
		p.clock++
		cp.used = p.clock
		return nil
	}
	cp := make([]byte, PageSize)
	copy(cp, buf)
	p.insertCache(id, cp, true)
	return nil
}

func (p *Pager) insertCache(id uint64, buf []byte, dirty bool) {
	if len(p.cache) >= p.maxCache {
		p.evictLocked()
	}
	p.clock++
	p.cache[id] = &cachedPage{buf: buf, dirty: dirty, used: p.clock}
}

// evictLocked writes back and drops roughly the least recently used quarter
// of the cache. Approximate LRU keeps the hot working set without the cost
// of a full ordering. A dirty page whose write-back fails stays cached and
// dirty, over the cap if need be: the next Flush retries it and reports
// the error, where dropping it would lose the write silently.
func (p *Pager) evictLocked() {
	var sum uint64
	for _, cp := range p.cache {
		sum += cp.used
	}
	cutoff := sum / uint64(len(p.cache)) // evict pages older than mean use time
	for id, cp := range p.cache {
		if cp.used > cutoff {
			continue
		}
		if cp.dirty {
			if _, err := p.f.WriteAt(cp.buf, int64(id)*PageSize); err != nil {
				continue
			}
		}
		delete(p.cache, id)
	}
}

// Alloc returns a fresh zeroed page, reusing the free list when possible.
func (p *Pager) Alloc() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	if p.freeHead != 0 {
		id := p.freeHead
		buf, err := p.readLocked(id)
		if err != nil {
			return 0, err
		}
		p.freeHead = binary.LittleEndian.Uint64(buf)
		zero := make([]byte, PageSize)
		if err := p.writeLocked(id, zero); err != nil {
			return 0, err
		}
		return id, nil
	}
	id := p.npages
	p.npages++
	zero := make([]byte, PageSize)
	p.insertCache(id, zero, true)
	return id, nil
}

// Free returns page id to the free list.
func (p *Pager) Free(id uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if id == 0 || id >= p.npages {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(buf, p.freeHead)
	if err := p.writeLocked(id, buf); err != nil {
		return err
	}
	p.freeHead = id
	return nil
}

// Reads returns the cumulative count of page reads served (cache hits
// included) since the pager opened. Deltas around an operation bound the
// page traffic it generated.
func (p *Pager) Reads() int64 { return p.reads.Load() }

// NumPages returns the current page count including the meta page.
func (p *Pager) NumPages() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.npages
}

// CachedPages returns the number of page buffers resident in the cache.
func (p *Pager) CachedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cache)
}

// Flush writes all dirty cached pages and the meta page to the file, and
// drops each page it wrote from the cache, as eviction does: the next Read
// of such a page goes to the file. Pages that were read from the file and
// never written stay cached.
func (p *Pager) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Pager) flushLocked() error {
	if p.closed {
		return ErrClosed
	}
	for id, cp := range p.cache {
		if cp.dirty {
			if _, err := p.f.WriteAt(cp.buf, int64(id)*PageSize); err != nil {
				return err
			}
			delete(p.cache, id)
		}
	}
	if err := p.writeMeta(); err != nil {
		return err
	}
	return p.f.Sync()
}

// Close flushes and closes the underlying file.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if err := p.flushLocked(); err != nil {
		p.f.Close()
		p.closed = true
		return err
	}
	p.closed = true
	return p.f.Close()
}

// SetRootDir records the bucket-directory root page in the meta page state.
func (p *Pager) SetRootDir(id uint64) {
	p.mu.Lock()
	p.rootDir = id
	p.mu.Unlock()
}

// RootDir returns the bucket-directory root page recorded in the meta page.
func (p *Pager) RootDir() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rootDir
}

// Overflow chains store values too large for one tree node. Layout of an
// overflow page: [8 bytes next page id][4 bytes payload length][payload].
const overflowCap = PageSize - 12

// WriteOverflow stores val in a chain of overflow pages, returning the head.
func (p *Pager) WriteOverflow(val []byte) (uint64, error) {
	var head, prev uint64
	for off := 0; ; off += overflowCap {
		id, err := p.Alloc()
		if err != nil {
			return 0, err
		}
		if head == 0 {
			head = id
		}
		if prev != 0 {
			buf, err := p.Read(prev)
			if err != nil {
				return 0, err
			}
			pb := append([]byte(nil), buf...)
			binary.LittleEndian.PutUint64(pb, id)
			if err := p.Write(prev, pb); err != nil {
				return 0, err
			}
		}
		chunk := val[off:]
		if len(chunk) > overflowCap {
			chunk = chunk[:overflowCap]
		}
		buf := make([]byte, PageSize)
		binary.LittleEndian.PutUint32(buf[8:], uint32(len(chunk)))
		copy(buf[12:], chunk)
		if err := p.Write(id, buf); err != nil {
			return 0, err
		}
		prev = id
		if off+len(chunk) >= len(val) {
			break
		}
	}
	return head, nil
}

// ReadOverflow appends the value stored by WriteOverflow to dst and
// returns the extended slice (dst may be nil). The bytes are copied out
// of the page cache, so a caller that passes a reused buffer reads an
// overflow value without allocating.
func (p *Pager) ReadOverflow(dst []byte, head uint64, total int) ([]byte, error) {
	// A chain has fewer pages than the file: a corrupt length must fail
	// here, before it sizes the buffer.
	if total < 0 || uint64(total) > p.NumPages()*overflowCap {
		return nil, ErrCorruptVal
	}
	base := len(dst)
	out := slices.Grow(dst, total)
	id := head
	for id != 0 {
		buf, err := p.Read(id)
		if err != nil {
			return nil, err
		}
		next := binary.LittleEndian.Uint64(buf)
		n := int(binary.LittleEndian.Uint32(buf[8:]))
		// Every page but the last is full (WriteOverflow), so each hop
		// grows the value and a looping chain hits the total check.
		if n > overflowCap || next != 0 && n != overflowCap {
			return nil, ErrCorruptVal
		}
		out = append(out, buf[12:12+n]...)
		id = next
		if len(out)-base > total {
			return nil, ErrCorruptVal
		}
	}
	if len(out)-base != total {
		return nil, ErrCorruptVal
	}
	return out, nil
}

// FreeOverflow releases an overflow chain back to the free list.
func (p *Pager) FreeOverflow(head uint64) error {
	id := head
	for id != 0 {
		buf, err := p.Read(id)
		if err != nil {
			return err
		}
		next := binary.LittleEndian.Uint64(buf)
		if err := p.Free(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}
