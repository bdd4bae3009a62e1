// Package hashidx implements a persistent extendible hash index over the
// kv pager, the DeepLens analog of BerkeleyDB's hash access method, for
// equality lookups where ordering is not needed; compared with the B+
// tree it builds faster and probes in O(1) page reads. Figure 6's
// index-build experiment times it. The query engine's hash index is a
// column's per-segment sort order instead (see internal/core).
//
// Layout: a meta page records the global depth and the head of an
// overflow-chain-serialized directory (bucket page ids). Bucket pages hold
// inline entries and chain to overflow buckets when a split cannot
// redistribute (all keys colliding at max depth).
//
// Bucket pages are read in place, as the B+ tree reads its leaves: Get
// and GetAppend walk the pager's cached page and copy only the matched
// value, and Put and Delete write an edit as one splice of the page into
// a pooled buffer. Only a split or an overflow-chain insert decodes a
// bucket. An Index is not safe for concurrent use.
package hashidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/warmpool"
)

// Pager is the page-file interface the index runs on; *kv.Pager satisfies it.
//
// Read may return the cached page itself rather than a copy (kv.Pager
// does), but its contents must stay valid until that page is next
// written. The index never modifies it and never holds it across its own
// next Write, which may overwrite it. Write must copy buf.
type Pager interface {
	Read(id uint64) ([]byte, error)
	Write(id uint64, buf []byte) error
	Alloc() (uint64, error)
	Free(id uint64) error
	WriteOverflow(val []byte) (uint64, error)
	ReadOverflow(dst []byte, head uint64, total int) ([]byte, error)
	FreeOverflow(head uint64) error
}

const (
	pageSize      = 4096
	bucketHdr     = 1 + 2 + 8 // local depth, nentries, overflow-next
	entryHdr      = 2 + 4     // key length, value length
	maxGlobal     = 20
	maxEntryBytes = pageSize - bucketHdr
)

// ErrNotFound is returned when a key is absent.
var ErrNotFound = errors.New("hashidx: key not found")

var errCorrupt = errors.New("hashidx: corrupt page")

// Index is an extendible hash table persisted in a page file.
type Index struct {
	p      Pager
	meta   uint64
	depth  uint8
	dir    []uint64 // bucket page per directory slot; len == 1<<depth
	nitems int
	// dirHead is the first page of the persisted directory; dirDirty
	// records that a split changed dir since it was written there.
	dirHead  uint64
	dirDirty bool
}

// Create allocates a new index in p and returns it; Meta() identifies it
// for reopening.
func Create(p Pager) (*Index, error) {
	meta, err := p.Alloc()
	if err != nil {
		return nil, err
	}
	b0, err := p.Alloc()
	if err != nil {
		return nil, err
	}
	if err := writeBucket(p, b0, &bucket{}); err != nil {
		return nil, err
	}
	ix := &Index{p: p, meta: meta, depth: 0, dir: []uint64{b0}, dirDirty: true}
	if err := ix.saveMeta(); err != nil {
		return nil, err
	}
	return ix, nil
}

// Open loads an index previously created in p with the given meta page.
func Open(p Pager, meta uint64) (*Index, error) {
	buf, err := p.Read(meta)
	if err != nil {
		return nil, err
	}
	ix := &Index{p: p, meta: meta}
	ix.depth = buf[0]
	if ix.depth > maxGlobal {
		return nil, errCorrupt
	}
	ix.nitems = int(binary.LittleEndian.Uint64(buf[1:]))
	ix.dirHead = binary.LittleEndian.Uint64(buf[9:])
	total := int(binary.LittleEndian.Uint32(buf[17:]))
	raw, err := p.ReadOverflow(nil, ix.dirHead, total)
	if err != nil {
		return nil, err
	}
	n := 1 << ix.depth
	if len(raw) != 8*n {
		return nil, errCorrupt
	}
	ix.dir = make([]uint64, n)
	for i := range ix.dir {
		ix.dir[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return ix, nil
}

// Meta returns the meta page id used to reopen the index.
func (ix *Index) Meta() uint64 { return ix.meta }

// Flush persists the directory and entry count to the meta page. Inserts
// that split a bucket persist the directory eagerly; plain inserts only
// touch bucket pages, so callers must Flush before closing the pager to
// make Len() durable.
func (ix *Index) Flush() error { return ix.saveMeta() }

// Len returns the number of stored entries.
func (ix *Index) Len() int { return ix.nitems }

// Free returns every page of the index — bucket pages with their overflow
// buckets, the directory chain and the meta page — to the pager. The
// index must not be used afterwards.
func (ix *Index) Free() error {
	freed := make(map[uint64]bool)
	for _, id := range ix.dir { // slots share buckets below global depth
		for id != 0 && !freed[id] {
			buf, err := ix.p.Read(id)
			if err != nil {
				return err
			}
			next := nextPage(buf)
			if err := ix.p.Free(id); err != nil {
				return err
			}
			freed[id] = true
			id = next
		}
	}
	if ix.dirHead != 0 {
		if err := ix.p.FreeOverflow(ix.dirHead); err != nil {
			return err
		}
	}
	return ix.p.Free(ix.meta)
}

// saveMeta writes the meta page, rewriting the directory first when a
// split changed it. The old directory chain is freed before the new one
// is written, so the new one reuses its pages.
func (ix *Index) saveMeta() error {
	if ix.dirDirty {
		if ix.dirHead != 0 {
			if err := ix.p.FreeOverflow(ix.dirHead); err != nil {
				return err
			}
			ix.dirHead = 0
		}
		raw := make([]byte, 8*len(ix.dir))
		for i, d := range ix.dir {
			binary.LittleEndian.PutUint64(raw[8*i:], d)
		}
		head, err := ix.p.WriteOverflow(raw)
		if err != nil {
			return err
		}
		ix.dirHead, ix.dirDirty = head, false
	}
	page := pagePool.Get()
	defer pagePool.Put(page)
	clear(page[:])
	buf := page[:]
	buf[0] = ix.depth
	binary.LittleEndian.PutUint64(buf[1:], uint64(ix.nitems))
	binary.LittleEndian.PutUint64(buf[9:], ix.dirHead)
	binary.LittleEndian.PutUint32(buf[17:], uint32(8*len(ix.dir)))
	return ix.p.Write(ix.meta, buf)
}

// bucket is a decoded bucket page, for the edits that redistribute or
// chain entries (split, chainInsert).
type bucket struct {
	local uint8
	next  uint64 // overflow bucket page
	keys  [][]byte
	vals  [][]byte
}

func (b *bucket) size() int {
	s := bucketHdr
	for i := range b.keys {
		s += entryHdr + len(b.keys[i]) + len(b.vals[i])
	}
	return s
}

func readBucket(p Pager, id uint64) (*bucket, error) {
	buf, err := p.Read(id)
	if err != nil {
		return nil, err
	}
	b := &bucket{local: buf[0]}
	n := int(binary.LittleEndian.Uint16(buf[1:]))
	b.next = binary.LittleEndian.Uint64(buf[3:])
	off := bucketHdr
	b.keys = make([][]byte, n)
	b.vals = make([][]byte, n)
	for i := 0; i < n; i++ {
		if off+entryHdr > pageSize {
			return nil, errCorrupt
		}
		kl := int(binary.LittleEndian.Uint16(buf[off:]))
		vl := int(binary.LittleEndian.Uint32(buf[off+2:]))
		off += entryHdr
		if off+kl+vl > pageSize {
			return nil, errCorrupt
		}
		b.keys[i] = append([]byte(nil), buf[off:off+kl]...)
		off += kl
		b.vals[i] = append([]byte(nil), buf[off:off+vl]...)
		off += vl
	}
	return b, nil
}

// pagePool recycles whole-page buffers: Pager.Write copies the page, so
// a buffer is free again the moment Write returns and a bucket write
// need not allocate a page of its own.
var pagePool warmpool.Pool[[pageSize]byte]

func writeBucket(p Pager, id uint64, b *bucket) error {
	page := pagePool.Get()
	defer pagePool.Put(page)
	encodeBucket(page, b)
	return p.Write(id, page[:])
}

// encodeBucket serializes b into page; bytes past the last entry are
// zero.
func encodeBucket(page *[pageSize]byte, b *bucket) {
	clear(page[:])
	buf := page[:]
	buf[0] = b.local
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(b.keys)))
	binary.LittleEndian.PutUint64(buf[3:], b.next)
	off := bucketHdr
	for i := range b.keys {
		off = putEntry(buf, off, b.keys[i], b.vals[i])
	}
}

// putEntry writes the entry key -> val at off and returns its end.
func putEntry(buf []byte, off int, key, val []byte) int {
	binary.LittleEndian.PutUint16(buf[off:], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[off+2:], uint32(len(val)))
	off += entryHdr
	off += copy(buf[off:], key)
	return off + copy(buf[off:], val)
}

// span locates key's entry in a bucket page: it occupies [at, end), or at
// is -1 when the page has none; the page's entries end at used.
type span struct{ at, end, used int }

// find walks every entry of bucket page buf in place, with readBucket's
// bounds checks, and locates the first one keyed key.
func find(buf, key []byte) (span, error) {
	s := span{at: -1}
	n := int(binary.LittleEndian.Uint16(buf[1:]))
	off := bucketHdr
	for i := 0; i < n; i++ {
		if off+entryHdr > pageSize {
			return span{}, errCorrupt
		}
		kl := int(binary.LittleEndian.Uint16(buf[off:]))
		end := off + entryHdr + kl + int(binary.LittleEndian.Uint32(buf[off+2:]))
		if end > pageSize {
			return span{}, errCorrupt
		}
		if s.at < 0 && bytes.Equal(buf[off+entryHdr:off+entryHdr+kl], key) {
			s.at, s.end = off, end
		}
		off = end
	}
	s.used = off
	return s, nil
}

// value returns the value of the entry s locates in buf.
func value(buf []byte, s span) []byte {
	return buf[s.at+entryHdr+int(binary.LittleEndian.Uint16(buf[s.at:])) : s.end]
}

// nextPage returns the overflow bucket a bucket page chains to, or 0.
func nextPage(buf []byte) uint64 { return binary.LittleEndian.Uint64(buf[3:]) }

// splice writes bucket page id, read in place as buf, with the entry s
// locates replaced by key -> val (put) or removed (!put); s.at == s.used
// appends the entry. The result is the page writeBucket produces for the
// edited bucket: entries in order, zeros past the last.
func (ix *Index) splice(id uint64, buf []byte, s span, key, val []byte, put bool) error {
	n := binary.LittleEndian.Uint16(buf[1:])
	switch {
	case !put:
		n--
	case s.at == s.used:
		n++
	}
	page := pagePool.Get()
	defer pagePool.Put(page)
	out := page[:]
	off := copy(out, buf[:s.at])
	if put {
		off = putEntry(out, off, key, val)
	}
	off += copy(out[off:], buf[s.end:s.used])
	clear(out[off:])
	binary.LittleEndian.PutUint16(out[1:], n)
	return ix.p.Write(id, out)
}

// hops guards a walk down an overflow chain against a cycle, which only
// a corrupt page makes. It is Brent's algorithm: the walk allocates
// nothing and fails within a few laps of the cycle.
type hops struct {
	mark      uint64
	n, period int
}

// step records a hop onto id and fails when id closes a cycle.
func (h *hops) step(id uint64) error {
	if id == h.mark {
		return errCorrupt
	}
	if h.n++; h.n >= h.period {
		h.mark, h.n, h.period = id, 0, 2*h.period+1
	}
	return nil
}

// hash64 is 64-bit FNV-1a, computed inline so that hashing a key does not
// allocate.
func hash64(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (ix *Index) slot(h uint64) int { return int(h & ((1 << ix.depth) - 1)) }

// locate walks key's bucket chain in place. It returns the page holding
// key's entry and the entry's span; when no page does, the chain's head
// page with s.at == -1 and s.used the end of its entries.
func (ix *Index) locate(key []byte) (uint64, []byte, span, error) {
	head := ix.dir[ix.slot(hash64(key))]
	if head == 0 {
		return 0, nil, span{}, errCorrupt
	}
	var headBuf []byte
	var headSpan span
	h := hops{mark: head}
	for id := head; id != 0; {
		buf, err := ix.p.Read(id)
		if err != nil {
			return 0, nil, span{}, err
		}
		s, err := find(buf, key)
		if err != nil {
			return 0, nil, span{}, err
		}
		if s.at >= 0 {
			return id, buf, s, nil
		}
		if headBuf == nil {
			headBuf, headSpan = buf, s
		}
		id = nextPage(buf)
		if err := h.step(id); err != nil {
			return 0, nil, span{}, err
		}
	}
	return head, headBuf, headSpan, nil
}

// Get returns the value stored under key, following overflow chains.
func (ix *Index) Get(key []byte) ([]byte, error) { return ix.GetAppend(nil, key) }

// GetAppend appends the value stored under key to dst and returns the
// extended slice, or ErrNotFound. Only the value is copied, so a dst with
// room makes a lookup allocation-free.
func (ix *Index) GetAppend(dst, key []byte) ([]byte, error) {
	_, buf, s, err := ix.locate(key)
	switch {
	case err != nil:
		return nil, err
	case s.at < 0:
		return nil, ErrNotFound
	}
	return append(dst, value(buf, s)...), nil
}

// Put inserts or replaces the value under key. Entries must fit a page.
func (ix *Index) Put(key, val []byte) error {
	size := entryHdr + len(key) + len(val)
	if size > maxEntryBytes {
		return fmt.Errorf("hashidx: entry of %d bytes exceeds page capacity", size)
	}
	for {
		id, buf, s, err := ix.locate(key)
		if err != nil {
			return err
		}
		if s.at >= 0 { // replace in place anywhere on the chain
			if s.used-(s.end-s.at)+size <= pageSize {
				return ix.splice(id, buf, s, key, val, true)
			}
			// Replacement outgrows its page: delete and reinsert.
			if err := ix.splice(id, buf, s, nil, nil, false); err != nil {
				return err
			}
			ix.nitems--
			return ix.Put(key, val)
		}
		// Insert into the head bucket if it fits.
		if s.used+size <= pageSize {
			s.at, s.end = s.used, s.used
			if err := ix.splice(id, buf, s, key, val, true); err != nil {
				return err
			}
			ix.nitems++
			return nil
		}
		// Full: split (or chain at max depth).
		b, err := readBucket(ix.p, id)
		if err != nil {
			return err
		}
		if b.local >= maxGlobal {
			return ix.chainInsert(id, b, key, val)
		}
		if err := ix.split(ix.slot(hash64(key)), id, b); err != nil {
			return err
		}
	}
}

// chainInsert appends to the bucket's overflow chain when splitting is
// exhausted.
func (ix *Index) chainInsert(headID uint64, head *bucket, key, val []byte) error {
	id, b := headID, head
	h := hops{mark: id}
	for {
		if b.size()+entryHdr+len(key)+len(val) <= pageSize {
			b.keys = append(b.keys, append([]byte(nil), key...))
			b.vals = append(b.vals, append([]byte(nil), val...))
			if err := writeBucket(ix.p, id, b); err != nil {
				return err
			}
			ix.nitems++
			return nil
		}
		if b.next == 0 {
			nid, err := ix.p.Alloc()
			if err != nil {
				return err
			}
			nb := &bucket{local: b.local}
			nb.keys = append(nb.keys, append([]byte(nil), key...))
			nb.vals = append(nb.vals, append([]byte(nil), val...))
			if err := writeBucket(ix.p, nid, nb); err != nil {
				return err
			}
			b.next = nid
			if err := writeBucket(ix.p, id, b); err != nil {
				return err
			}
			ix.nitems++
			return nil
		}
		nid := b.next
		if err := h.step(nid); err != nil {
			return err
		}
		nb, err := readBucket(ix.p, nid)
		if err != nil {
			return err
		}
		id, b = nid, nb
	}
}

// split divides the bucket serving slot into two buckets on the next hash
// bit, doubling the directory when the bucket is already at global depth.
func (ix *Index) split(slot int, id uint64, b *bucket) error {
	if b.local == ix.depth {
		// Put guards b.local < maxGlobal, so doubling is always legal here.
		nd := make([]uint64, len(ix.dir)*2)
		copy(nd, ix.dir)
		copy(nd[len(ix.dir):], ix.dir)
		ix.dir = nd
		ix.depth++
	}
	newID, err := ix.p.Alloc()
	if err != nil {
		return err
	}
	bit := uint64(1) << b.local
	b.local++
	nb := &bucket{local: b.local}
	var keepK, keepV [][]byte
	for i := range b.keys {
		if hash64(b.keys[i])&bit != 0 {
			nb.keys = append(nb.keys, b.keys[i])
			nb.vals = append(nb.vals, b.vals[i])
		} else {
			keepK = append(keepK, b.keys[i])
			keepV = append(keepV, b.vals[i])
		}
	}
	b.keys, b.vals = keepK, keepV
	if err := writeBucket(ix.p, id, b); err != nil {
		return err
	}
	if err := writeBucket(ix.p, newID, nb); err != nil {
		return err
	}
	// Repoint directory slots whose low (local-1) bits match this bucket and
	// whose new bit is set. The dir[s]==id guard confines the repoint to
	// slots that actually referenced the split bucket.
	mask := bit - 1
	base := uint64(slot) & mask
	for s := range ix.dir {
		if uint64(s)&mask == base && uint64(s)&bit != 0 && ix.dir[s] == id {
			ix.dir[s] = newID
		}
	}
	ix.dirDirty = true
	return ix.saveMeta()
}

// Delete removes key, or returns ErrNotFound.
func (ix *Index) Delete(key []byte) error {
	id, buf, s, err := ix.locate(key)
	switch {
	case err != nil:
		return err
	case s.at < 0:
		return ErrNotFound
	}
	if err := ix.splice(id, buf, s, nil, nil, false); err != nil {
		return err
	}
	ix.nitems--
	return nil
}
