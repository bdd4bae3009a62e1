// Package hashidx implements a persistent extendible hash index over the
// kv pager, the DeepLens analog of BerkeleyDB's hash access method. It
// serves equality lookups on discrete metadata (labels, string keys,
// lineage pointers) where ordering is not needed; compared with the B+
// tree it builds faster and probes in O(1) page reads.
//
// Layout: a meta page records the global depth and the head of an
// overflow-chain-serialized directory (bucket page ids). Bucket pages hold
// inline entries and chain to overflow buckets when a split cannot
// redistribute (all keys colliding at max depth).
package hashidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// Pager is the page-file interface the index runs on; *kv.Pager satisfies it.
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
	ix := &Index{p: p, meta: meta, depth: 0, dir: []uint64{b0}}
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
	head := binary.LittleEndian.Uint64(buf[9:])
	total := int(binary.LittleEndian.Uint32(buf[17:]))
	raw, err := p.ReadOverflow(nil, head, total)
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
			next := binary.LittleEndian.Uint64(buf[3:])
			if err := ix.p.Free(id); err != nil {
				return err
			}
			freed[id] = true
			id = next
		}
	}
	meta, err := ix.p.Read(ix.meta)
	if err != nil {
		return err
	}
	if head := binary.LittleEndian.Uint64(meta[9:]); head != 0 {
		if err := ix.p.FreeOverflow(head); err != nil {
			return err
		}
	}
	return ix.p.Free(ix.meta)
}

func (ix *Index) saveMeta() error {
	old, err := ix.p.Read(ix.meta)
	if err == nil {
		if h := binary.LittleEndian.Uint64(old[9:]); h != 0 {
			if err := ix.p.FreeOverflow(h); err != nil {
				return err
			}
		}
	}
	raw := make([]byte, 8*len(ix.dir))
	for i, d := range ix.dir {
		binary.LittleEndian.PutUint64(raw[8*i:], d)
	}
	head, err := ix.p.WriteOverflow(raw)
	if err != nil {
		return err
	}
	buf := make([]byte, pageSize)
	buf[0] = ix.depth
	binary.LittleEndian.PutUint64(buf[1:], uint64(ix.nitems))
	binary.LittleEndian.PutUint64(buf[9:], head)
	binary.LittleEndian.PutUint32(buf[17:], uint32(len(raw)))
	return ix.p.Write(ix.meta, buf)
}

type bucket struct {
	local uint8
	next  uint64 // overflow bucket page
	keys  [][]byte
	vals  [][]byte
}

func (b *bucket) size() int {
	s := bucketHdr
	for i := range b.keys {
		s += 6 + len(b.keys[i]) + len(b.vals[i])
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
		if off+6 > pageSize {
			return nil, errCorrupt
		}
		kl := int(binary.LittleEndian.Uint16(buf[off:]))
		vl := int(binary.LittleEndian.Uint32(buf[off+2:]))
		off += 6
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
var pagePool = sync.Pool{New: func() any { return new([pageSize]byte) }}

func writeBucket(p Pager, id uint64, b *bucket) error {
	page := pagePool.Get().(*[pageSize]byte)
	defer pagePool.Put(page)
	clear(page[:]) // bytes past the last entry are written too
	buf := page[:]
	buf[0] = b.local
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(b.keys)))
	binary.LittleEndian.PutUint64(buf[3:], b.next)
	off := bucketHdr
	for i := range b.keys {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(b.keys[i])))
		binary.LittleEndian.PutUint32(buf[off+2:], uint32(len(b.vals[i])))
		off += 6
		copy(buf[off:], b.keys[i])
		off += len(b.keys[i])
		copy(buf[off:], b.vals[i])
		off += len(b.vals[i])
	}
	return p.Write(id, buf)
}

func hash64(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

func (ix *Index) slot(h uint64) int { return int(h & ((1 << ix.depth) - 1)) }

// Get returns the value stored under key, following overflow chains.
func (ix *Index) Get(key []byte) ([]byte, error) {
	id := ix.dir[ix.slot(hash64(key))]
	for id != 0 {
		b, err := readBucket(ix.p, id)
		if err != nil {
			return nil, err
		}
		for i, k := range b.keys {
			if bytes.Equal(k, key) {
				return append([]byte(nil), b.vals[i]...), nil
			}
		}
		id = b.next
	}
	return nil, ErrNotFound
}

// Put inserts or replaces the value under key. Entries must fit a page.
func (ix *Index) Put(key, val []byte) error {
	if 6+len(key)+len(val) > maxEntryBytes {
		return fmt.Errorf("hashidx: entry of %d bytes exceeds page capacity", 6+len(key)+len(val))
	}
	for {
		h := hash64(key)
		slot := ix.slot(h)
		id := ix.dir[slot]
		// Replace in place anywhere on the chain.
		cid := id
		for cid != 0 {
			b, err := readBucket(ix.p, cid)
			if err != nil {
				return err
			}
			for i, k := range b.keys {
				if bytes.Equal(k, key) {
					b.vals[i] = append([]byte(nil), val...)
					if b.size() <= pageSize {
						return writeBucket(ix.p, cid, b)
					}
					// Replacement grew past capacity: delete and reinsert.
					b.keys = append(b.keys[:i], b.keys[i+1:]...)
					b.vals = append(b.vals[:i], b.vals[i+1:]...)
					if err := writeBucket(ix.p, cid, b); err != nil {
						return err
					}
					ix.nitems--
					return ix.Put(key, val)
				}
			}
			cid = b.next
		}
		// Insert into the head bucket if it fits.
		b, err := readBucket(ix.p, id)
		if err != nil {
			return err
		}
		if b.size()+6+len(key)+len(val) <= pageSize {
			b.keys = append(b.keys, append([]byte(nil), key...))
			b.vals = append(b.vals, append([]byte(nil), val...))
			if err := writeBucket(ix.p, id, b); err != nil {
				return err
			}
			ix.nitems++
			return nil
		}
		// Full: split (or chain at max depth).
		if b.local >= maxGlobal {
			return ix.chainInsert(id, b, key, val)
		}
		if err := ix.split(slot, id, b); err != nil {
			return err
		}
	}
}

// chainInsert appends to the bucket's overflow chain when splitting is
// exhausted.
func (ix *Index) chainInsert(headID uint64, head *bucket, key, val []byte) error {
	id, b := headID, head
	for {
		if b.size()+6+len(key)+len(val) <= pageSize {
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
	return ix.saveMeta()
}

// Delete removes key, or returns ErrNotFound.
func (ix *Index) Delete(key []byte) error {
	id := ix.dir[ix.slot(hash64(key))]
	for id != 0 {
		b, err := readBucket(ix.p, id)
		if err != nil {
			return err
		}
		for i, k := range b.keys {
			if bytes.Equal(k, key) {
				b.keys = append(b.keys[:i], b.keys[i+1:]...)
				b.vals = append(b.vals[:i], b.vals[i+1:]...)
				if err := writeBucket(ix.p, id, b); err != nil {
					return err
				}
				ix.nitems--
				return nil
			}
		}
		id = b.next
	}
	return ErrNotFound
}

// Scan calls fn for every entry in unspecified order; fn returning false
// stops the scan.
func (ix *Index) Scan(fn func(k, v []byte) bool) error {
	seen := make(map[uint64]bool)
	for _, id := range ix.dir {
		if seen[id] {
			continue
		}
		seen[id] = true
		cur := id
		for cur != 0 {
			b, err := readBucket(ix.p, cur)
			if err != nil {
				return err
			}
			for i := range b.keys {
				if !fn(b.keys[i], b.vals[i]) {
					return nil
				}
			}
			cur = b.next
		}
	}
	return nil
}
