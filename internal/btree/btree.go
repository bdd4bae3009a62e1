// Package btree implements the on-disk B+ tree used for DeepLens buckets
// and single-dimensional indexes (the paper's BerkeleyDB B+ trees). Keys
// and values are byte strings; keys are ordered by bytes.Compare. Values
// larger than an inline threshold are spilled to overflow-page chains via
// the backing pager. Leaves are chained for ordered range scans, which is
// what enables the Frame File's temporal filter pushdown.
//
// Deletion is lazy: entries are removed in place without rebalancing, which
// is sufficient for the catalog/index workloads DeepLens runs (bulk build,
// read-mostly). Scans skip empty leaves.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Pager is the page-file interface the tree runs on. *kv.Pager satisfies it.
// Write must copy buf before returning (the tree reuses it), and
// ReadOverflow appends the value to dst.
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
	pageSize  = 4096
	typeLeaf  = 1
	typeInner = 2
	maxInline = 1024
	ovflFlag  = 0x80000000
)

// ErrNotFound is returned by Get and Delete when the key is absent.
var ErrNotFound = errors.New("btree: key not found")

var errCorrupt = errors.New("btree: corrupt node page")

// Tree is a B+ tree rooted at a page of the backing pager. A zero root is
// an empty tree; the root page id changes as the root splits, so container
// code must persist Root() after mutations.
type Tree struct {
	p     Pager
	root  uint64
	nodes map[uint64]*node // decoded-node cache (write-through)
}

const maxNodeCache = 1 << 14

// New creates an empty tree on p.
func New(p Pager) *Tree { return &Tree{p: p, nodes: make(map[uint64]*node)} }

// Open attaches to an existing tree rooted at root (0 = empty).
func Open(p Pager, root uint64) *Tree { return &Tree{p: p, root: root, nodes: make(map[uint64]*node)} }

// Root returns the current root page id (0 when empty).
func (t *Tree) Root() uint64 { return t.root }

type node struct {
	id       uint64
	leaf     bool
	next     uint64   // leaf: right sibling
	keys     [][]byte //
	vals     [][]byte // leaf: inline values (nil when spilled)
	ovHead   []uint64 // leaf: overflow heads (0 when inline)
	ovLen    []int    // leaf: overflow total lengths
	children []uint64 // inner: len(keys)+1 children
}

const nodeHeader = 11 // type + nkeys + next/child0

// entrySize is the serialized size of key i with its value or child.
func (n *node) entrySize(i int) int {
	switch {
	case !n.leaf:
		return 2 + len(n.keys[i]) + 8
	case n.ovHead[i] != 0:
		return 2 + 4 + len(n.keys[i]) + 8
	}
	return 2 + 4 + len(n.keys[i]) + len(n.vals[i])
}

func (n *node) size() int {
	s := nodeHeader
	for i := range n.keys {
		s += n.entrySize(i)
	}
	return s
}

// load returns the decoded node for a page, serving repeat loads from the
// tree's write-through cache (pages are only ever mutated through store,
// which keeps the cache coherent).
func (t *Tree) load(id uint64) (*node, error) {
	if n, ok := t.nodes[id]; ok {
		return n, nil
	}
	n, err := t.loadPage(id)
	if err != nil {
		return nil, err
	}
	t.cacheNode(n)
	return n, nil
}

func (t *Tree) cacheNode(n *node) {
	if len(t.nodes) >= maxNodeCache {
		for k := range t.nodes { // evict arbitrary entries
			delete(t.nodes, k)
			if len(t.nodes) < maxNodeCache/2 {
				break
			}
		}
	}
	t.nodes[n.id] = n
}

func (t *Tree) loadPage(id uint64) (*node, error) {
	buf, err := t.p.Read(id)
	if err != nil {
		return nil, err
	}
	n := &node{id: id}
	switch buf[0] {
	case typeLeaf:
		n.leaf = true
	case typeInner:
	default:
		return nil, fmt.Errorf("%w: page %d type %d", errCorrupt, id, buf[0])
	}
	nk := int(binary.LittleEndian.Uint16(buf[1:]))
	off := 3
	if n.leaf {
		n.next = binary.LittleEndian.Uint64(buf[off:])
		off += 8
		n.keys = make([][]byte, nk)
		n.vals = make([][]byte, nk)
		n.ovHead = make([]uint64, nk)
		n.ovLen = make([]int, nk)
		for i := 0; i < nk; i++ {
			kl := int(binary.LittleEndian.Uint16(buf[off:]))
			vm := binary.LittleEndian.Uint32(buf[off+2:])
			off += 6
			n.keys[i] = append([]byte(nil), buf[off:off+kl]...)
			off += kl
			if vm&ovflFlag != 0 {
				n.ovHead[i] = binary.LittleEndian.Uint64(buf[off:])
				n.ovLen[i] = int(vm &^ ovflFlag)
				off += 8
			} else {
				vl := int(vm)
				n.vals[i] = append([]byte(nil), buf[off:off+vl]...)
				off += vl
			}
		}
	} else {
		n.children = make([]uint64, 0, nk+1)
		n.children = append(n.children, binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		n.keys = make([][]byte, nk)
		for i := 0; i < nk; i++ {
			kl := int(binary.LittleEndian.Uint16(buf[off:]))
			off += 2
			n.keys[i] = append([]byte(nil), buf[off:off+kl]...)
			off += kl
			n.children = append(n.children, binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	return n, nil
}

// pagePool recycles store's serialization buffer: Pager.Write copies the
// page into its cache, so the buffer is free again the moment Write
// returns and a Put need not allocate a page of its own.
var pagePool = sync.Pool{New: func() any { return new([pageSize]byte) }}

func (t *Tree) store(n *node) error {
	t.cacheNode(n)
	page := pagePool.Get().(*[pageSize]byte)
	defer pagePool.Put(page)
	clear(page[:]) // bytes past the last entry are written too
	buf := page[:]
	if n.leaf {
		buf[0] = typeLeaf
	} else {
		buf[0] = typeInner
	}
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	off := 3
	if n.leaf {
		binary.LittleEndian.PutUint64(buf[off:], n.next)
		off += 8
		for i, k := range n.keys {
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(k)))
			if n.ovHead[i] != 0 {
				binary.LittleEndian.PutUint32(buf[off+2:], uint32(n.ovLen[i])|ovflFlag)
			} else {
				binary.LittleEndian.PutUint32(buf[off+2:], uint32(len(n.vals[i])))
			}
			off += 6
			copy(buf[off:], k)
			off += len(k)
			if n.ovHead[i] != 0 {
				binary.LittleEndian.PutUint64(buf[off:], n.ovHead[i])
				off += 8
			} else {
				copy(buf[off:], n.vals[i])
				off += len(n.vals[i])
			}
		}
	} else {
		binary.LittleEndian.PutUint64(buf[off:], n.children[0])
		off += 8
		for i, k := range n.keys {
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(k)))
			off += 2
			copy(buf[off:], k)
			off += len(k)
			binary.LittleEndian.PutUint64(buf[off:], n.children[i+1])
			off += 8
		}
	}
	return t.p.Write(n.id, buf)
}

// search returns the index of the first key >= key.
func search(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under key, or ErrNotFound.
func (t *Tree) Get(key []byte) ([]byte, error) { return t.GetAppend(nil, key) }

// GetAppend appends the value stored under key to dst and returns the
// extended slice, or ErrNotFound. The value is always copied, so the
// result never aliases tree state.
func (t *Tree) GetAppend(dst, key []byte) ([]byte, error) {
	if t.root == 0 {
		return nil, ErrNotFound
	}
	n, err := t.load(t.root)
	if err != nil {
		return nil, err
	}
	for !n.leaf {
		i := search(n.keys, key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			i++
		}
		if n, err = t.load(n.children[i]); err != nil {
			return nil, err
		}
	}
	i := search(n.keys, key)
	if i >= len(n.keys) || !bytes.Equal(n.keys[i], key) {
		return nil, ErrNotFound
	}
	return t.value(dst, n, i)
}

// value appends entry i's value to dst, materializing overflow chains.
func (t *Tree) value(dst []byte, n *node, i int) ([]byte, error) {
	if n.ovHead[i] != 0 {
		return t.p.ReadOverflow(dst, n.ovHead[i], n.ovLen[i])
	}
	return append(dst, n.vals[i]...), nil
}

// Put inserts or replaces the value under key.
func (t *Tree) Put(key, val []byte) error {
	if len(key) > 512 {
		return fmt.Errorf("btree: key length %d exceeds 512", len(key))
	}
	if t.root == 0 {
		id, err := t.p.Alloc()
		if err != nil {
			return err
		}
		n := &node{id: id, leaf: true}
		if err := t.insertLeaf(n, key, val); err != nil {
			return err
		}
		if err := t.store(n); err != nil {
			return err
		}
		t.root = id
		return nil
	}
	sep, right, err := t.put(t.root, key, val)
	if err != nil {
		return err
	}
	if right != 0 { // root split
		id, err := t.p.Alloc()
		if err != nil {
			return err
		}
		nr := &node{id: id, keys: [][]byte{sep}, children: []uint64{t.root, right}}
		if err := t.store(nr); err != nil {
			return err
		}
		t.root = id
	}
	return nil
}

// put inserts into the subtree at page id, returning a separator key and new
// right-sibling page when the node split.
func (t *Tree) put(id uint64, key, val []byte) ([]byte, uint64, error) {
	n, err := t.load(id)
	if err != nil {
		return nil, 0, err
	}
	if n.leaf {
		if err := t.insertLeaf(n, key, val); err != nil {
			return nil, 0, err
		}
		return t.maybeSplit(n)
	}
	i := search(n.keys, key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		i++
	}
	sep, right, err := t.put(n.children[i], key, val)
	if err != nil {
		return nil, 0, err
	}
	if right == 0 {
		return nil, 0, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, 0)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	return t.maybeSplit(n)
}

func (t *Tree) insertLeaf(n *node, key, val []byte) error {
	var head uint64
	var total int
	inline := val
	if len(val) > maxInline {
		h, err := t.p.WriteOverflow(val)
		if err != nil {
			return err
		}
		head, total, inline = h, len(val), nil
	}
	i := search(n.keys, key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) { // replace
		if n.ovHead[i] != 0 {
			if err := t.p.FreeOverflow(n.ovHead[i]); err != nil {
				return err
			}
		}
		n.vals[i] = append([]byte(nil), inline...)
		if inline == nil {
			n.vals[i] = nil
		}
		n.ovHead[i], n.ovLen[i] = head, total
		return nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = append([]byte(nil), key...)
	n.vals = append(n.vals, nil)
	copy(n.vals[i+1:], n.vals[i:])
	if inline != nil {
		n.vals[i] = append([]byte(nil), inline...)
	} else {
		n.vals[i] = nil
	}
	n.ovHead = append(n.ovHead, 0)
	copy(n.ovHead[i+1:], n.ovHead[i:])
	n.ovHead[i] = head
	n.ovLen = append(n.ovLen, 0)
	copy(n.ovLen[i+1:], n.ovLen[i:])
	n.ovLen[i] = total
	return nil
}

// maybeSplit stores n, splitting it first when it no longer fits a page.
func (t *Tree) maybeSplit(n *node) ([]byte, uint64, error) {
	if n.size() <= pageSize {
		return nil, 0, t.store(n)
	}
	id, err := t.p.Alloc()
	if err != nil {
		return nil, 0, err
	}
	mid := len(n.keys) / 2
	if mid == 0 {
		mid = 1
	}
	// Halving by count can leave one half over a page when entry sizes
	// differ widely (a run of near-maxInline values beside tiny ones):
	// move the split point until both halves fit. One exists, because
	// the node overflowed by a single entry of at most ~1.5 KiB.
	total, left := n.size(), nodeHeader
	for i := 0; i < mid; i++ {
		left += n.entrySize(i)
	}
	right := func() int { // an inner node's key mid moves up, into neither half
		if n.leaf {
			return nodeHeader + total - left
		}
		return nodeHeader + total - left - n.entrySize(mid)
	}
	for left > pageSize {
		mid--
		left -= n.entrySize(mid)
	}
	for right() > pageSize {
		left += n.entrySize(mid)
		mid++
	}
	r := &node{id: id, leaf: n.leaf}
	var sep []byte
	if n.leaf {
		r.keys = append(r.keys, n.keys[mid:]...)
		r.vals = append(r.vals, n.vals[mid:]...)
		r.ovHead = append(r.ovHead, n.ovHead[mid:]...)
		r.ovLen = append(r.ovLen, n.ovLen[mid:]...)
		r.next = n.next
		n.next = id
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.ovHead = n.ovHead[:mid]
		n.ovLen = n.ovLen[:mid]
		sep = append([]byte(nil), r.keys[0]...)
	} else {
		sep = append([]byte(nil), n.keys[mid]...)
		r.keys = append(r.keys, n.keys[mid+1:]...)
		r.children = append(r.children, n.children[mid+1:]...)
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	if err := t.store(n); err != nil {
		return nil, 0, err
	}
	if err := t.store(r); err != nil {
		return nil, 0, err
	}
	return sep, id, nil
}

// Delete removes key, returning ErrNotFound when absent. Nodes are not
// rebalanced (lazy deletion).
func (t *Tree) Delete(key []byte) error {
	if t.root == 0 {
		return ErrNotFound
	}
	n, err := t.load(t.root)
	if err != nil {
		return err
	}
	for !n.leaf {
		i := search(n.keys, key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			i++
		}
		if n, err = t.load(n.children[i]); err != nil {
			return err
		}
	}
	i := search(n.keys, key)
	if i >= len(n.keys) || !bytes.Equal(n.keys[i], key) {
		return ErrNotFound
	}
	if n.ovHead[i] != 0 {
		if err := t.p.FreeOverflow(n.ovHead[i]); err != nil {
			return err
		}
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.ovHead = append(n.ovHead[:i], n.ovHead[i+1:]...)
	n.ovLen = append(n.ovLen[:i], n.ovLen[i+1:]...)
	return t.store(n)
}

// Cursor iterates leaf entries in key order.
type Cursor struct {
	t   *Tree
	n   *node
	idx int
	err error
}

// Seek positions a cursor at the first key >= key.
func (t *Tree) Seek(key []byte) *Cursor {
	c := &Cursor{t: t}
	if t.root == 0 {
		return c
	}
	n, err := t.load(t.root)
	if err != nil {
		c.err = err
		return c
	}
	for !n.leaf {
		i := search(n.keys, key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			i++
		}
		if n, err = t.load(n.children[i]); err != nil {
			c.err = err
			return c
		}
	}
	c.n = n
	c.idx = search(n.keys, key)
	c.skipEmpty()
	return c
}

// First positions a cursor at the smallest key.
func (t *Tree) First() *Cursor { return t.Seek(nil) }

func (c *Cursor) skipEmpty() {
	for c.n != nil && c.idx >= len(c.n.keys) {
		if c.n.next == 0 {
			c.n = nil
			return
		}
		n, err := c.t.load(c.n.next)
		if err != nil {
			c.err = err
			c.n = nil
			return
		}
		c.n = n
		c.idx = 0
	}
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.n != nil && c.err == nil }

// Err returns the first error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// Key returns the current key. Valid only when Valid().
func (c *Cursor) Key() []byte { return c.n.keys[c.idx] }

// Value returns the current value, materializing overflow chains.
func (c *Cursor) Value() ([]byte, error) { return c.t.value(nil, c.n, c.idx) }

// Next advances to the next entry in key order.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	c.idx++
	c.skipEmpty()
}

// Scan calls fn for each entry with key in [lo, hi); nil hi means unbounded.
// Iteration stops early when fn returns false.
func (t *Tree) Scan(lo, hi []byte, fn func(k, v []byte) bool) error {
	for c := t.Seek(lo); c.Valid(); c.Next() {
		if hi != nil && bytes.Compare(c.Key(), hi) >= 0 {
			break
		}
		v, err := c.Value()
		if err != nil {
			return err
		}
		if !fn(c.Key(), v) {
			break
		}
	}
	return nil
}

// Len walks the tree counting entries. O(n); intended for stats and tests.
func (t *Tree) Len() (int, error) {
	n := 0
	err := t.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}
