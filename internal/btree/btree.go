// Package btree implements the on-disk B+ tree behind the kv store's
// buckets (the paper's BerkeleyDB B+ trees); Figure 6's index-build
// experiment also times it as a single-attribute index. Keys
// and values are byte strings; keys are ordered by bytes.Compare. Values
// larger than an inline threshold are spilled to overflow-page chains via
// the backing pager. Leaves are chained for ordered range scans, which is
// what enables the Frame File's temporal filter pushdown.
//
// Splits: a node that no longer fits its page splits in two. When the
// insert went past the last key of the rightmost node on its path — an
// ascending key, which every PatchID-keyed bucket receives — every
// existing entry stays in the left node and only the new entry (for an
// inner node, the new separator) starts the right one, so append-order
// loads leave full pages behind rather than half-empty ones (SQLite's
// balance_quick, Postgres's rightmost-page split). Any other insert splits
// in half. Either way the split point then moves until both halves fit.
//
// Caching: the tree keeps decoded inner nodes in a write-through cache,
// and only those. A leaf is never decoded: every access parses the
// pager's cached page in place, and Put and Delete edit a pooled copy of
// it that Pager.Write copies back. A Tree is not safe for concurrent use:
// its owner serializes every call under one lock. The leaf bytes a caller
// is handed — Scan's keys, Cursor.Key — alias the page, so they are valid
// only under that lock and until the tree's next mutation; values are
// always copied out.
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
	"slices"

	"repro/internal/warmpool"
)

// Pager is the page-file interface the tree runs on. *kv.Pager satisfies it.
// Write must copy buf before returning (the tree reuses it), and
// ReadOverflow appends the value to dst. The tree reads the slice Read
// returns in place without modifying it, so that slice must keep its
// contents until the tree next writes or frees the page.
type Pager interface {
	Read(id uint64) ([]byte, error)
	Write(id uint64, buf []byte) error
	Alloc() (uint64, error)
	Free(id uint64) error
	WriteOverflow(val []byte) (uint64, error)
	ReadOverflow(dst []byte, head uint64, total int) ([]byte, error)
	FreeOverflow(head uint64) error
}

// Page layout. Both node types start with [type u8][nkeys u16][u64]: the
// right sibling of a leaf, child 0 of an inner node. A leaf entry is
// [key length u16][value length u32, or overflow length | ovflFlag][key]
// [inline value, or overflow head u64]; an inner entry is [key length
// u16][key][child u64].
const (
	pageSize    = 4096
	typeLeaf    = 1
	typeInner   = 2
	maxInline   = 1024
	maxKey      = 512
	ovflFlag    = 0x80000000
	nodeHeader  = 11
	entryHeader = 6
	// maxDepth bounds a descent: every inner node has two or more
	// children, so a tree this deep would need 2^63 leaves. Deeper means
	// a page cycle.
	maxDepth = 64
)

// ErrNotFound is returned by Get and Delete when the key is absent.
var ErrNotFound = errors.New("btree: key not found")

var errCorrupt = errors.New("btree: corrupt node page")

func corrupt(id uint64, what string) error {
	return fmt.Errorf("%w: page %d: %s", errCorrupt, id, what)
}

// Tree is a B+ tree rooted at a page of the backing pager. A zero root is
// an empty tree; the root page id changes as the root splits, so container
// code must persist Root() after mutations.
type Tree struct {
	p     Pager
	root  uint64
	nodes map[uint64]*node // decoded inner nodes (write-through)
}

const maxNodeCache = 1 << 14

// New creates an empty tree on p.
func New(p Pager) *Tree { return &Tree{p: p, nodes: make(map[uint64]*node)} }

// Open attaches to an existing tree rooted at root (0 = empty).
func Open(p Pager, root uint64) *Tree { return &Tree{p: p, root: root, nodes: make(map[uint64]*node)} }

// Root returns the current root page id (0 when empty).
func (t *Tree) Root() uint64 { return t.root }

// node is a decoded inner node: len(keys)+1 children.
type node struct {
	id       uint64
	keys     [][]byte
	children []uint64
}

// entrySize is the serialized size of key i with its child.
func (n *node) entrySize(i int) int { return 2 + len(n.keys[i]) + 8 }

func (n *node) size() int {
	s := nodeHeader
	for i := range n.keys {
		s += n.entrySize(i)
	}
	return s
}

// child returns the index of the child whose subtree holds key: past
// every separator <= key.
func (n *node) child(key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leaf is a leaf page read in place: buf is the pager's page.
type leaf struct {
	id   uint64
	buf  []byte
	n    int    // entries
	next uint64 // right sibling, 0 at the right edge
}

// Entries are variable-length and the page has no offset array, so every
// access walks them from the first. An entry is bounds-checked before
// anything in it is dereferenced: size needs only its header checked;
// key, spill and Tree.value run on entries checked whole.

// size returns the length of the entry at off, whose header lies in the
// page. Lengths no writer produces (a key past maxKey, an inline value
// past maxInline) report a size past the page, which every caller's
// bounds check rejects: split and separator arithmetic relies on them.
func (l *leaf) size(off int) int {
	kl := int(binary.LittleEndian.Uint16(l.buf[off:]))
	vm := binary.LittleEndian.Uint32(l.buf[off+2:])
	vl := int(vm)
	if vm&ovflFlag != 0 {
		vl = 8
	}
	if kl > maxKey || vl > maxInline {
		return pageSize + 1
	}
	return entryHeader + kl + vl
}

// check returns the end of the entry at off, or errCorrupt when the entry
// runs past the page.
func (l *leaf) check(off int) (int, error) {
	if off > len(l.buf)-entryHeader {
		return 0, corrupt(l.id, "leaf entry past the page")
	}
	end := off + l.size(off)
	if end > len(l.buf) {
		return 0, corrupt(l.id, "leaf entry past the page")
	}
	return end, nil
}

// key returns the key of the checked entry at off.
func (l *leaf) key(off int) []byte {
	k := off + entryHeader
	return l.buf[k : k+int(binary.LittleEndian.Uint16(l.buf[off:]))]
}

// spill returns the first overflow page of the checked entry at off, or 0
// when its value is inline.
func (l *leaf) spill(off int) uint64 {
	if binary.LittleEndian.Uint32(l.buf[off+2:])&ovflFlag == 0 {
		return 0
	}
	return binary.LittleEndian.Uint64(l.buf[off+entryHeader+int(binary.LittleEndian.Uint16(l.buf[off:])):])
}

// pos is a position in a leaf: entry i, checked to span [off, end) when
// i < l.n.
type pos struct {
	l        leaf
	i        int
	off, end int
}

// maxEntries bounds a leaf page's entries: each takes entryHeader bytes
// or more.
const maxEntries = (pageSize - nodeHeader) / entryHeader

// probe is how many entries a leaf seek walks between key comparisons.
const probe = 16

// seek returns the position of l's first entry with key >= key and
// whether that key equals key. It walks the entries once, recording
// their offsets in offs and comparing every probe-th key, stops at the
// first such key >= key and binary-searches the run before it. With
// whole it walks on to the last entry and leaves that entry's end in
// offs[l.n] (a Put or Delete rewrites the rest of the page).
func (l leaf) seek(key []byte, offs []uint16, whole bool) (pos, bool, error) {
	b, n := l.buf, l.n
	if n >= len(offs) {
		return pos{}, false, corrupt(l.id, fmt.Sprintf("%d leaf entries", n))
	}
	lo, hi := 0, n // keys before lo are < key; key hi (if < n) is >= key
	off, i := nodeHeader, 0
	for ; i < n; i++ {
		if off > len(b)-entryHeader {
			return pos{}, false, corrupt(l.id, "leaf entry past the page")
		}
		offs[i] = uint16(off)
		next := off + l.size(off)
		if hi == n && i%probe == probe-1 {
			if next > len(b) {
				return pos{}, false, corrupt(l.id, "leaf entry past the page")
			}
			if bytes.Compare(l.key(off), key) < 0 {
				lo = i + 1
			} else if hi = i; !whole {
				off, i = next, i+1
				break
			}
		}
		off = next
	}
	if off > len(b) {
		return pos{}, false, corrupt(l.id, "leaf entry past the page")
	}
	offs[i] = uint16(off) // every entry before i ends by here: all checked
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(l.key(int(offs[mid])), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p := pos{l: l, i: lo, off: int(offs[lo])}
	if lo == n {
		return p, false, nil
	}
	p.end = int(offs[lo+1])
	return p, bytes.Equal(l.key(p.off), key), nil
}

// load returns page id as a decoded inner node — from the cache, or
// decoded and cached — or, for a leaf, the page read in place (nil node).
func (t *Tree) load(id uint64) (*node, leaf, error) {
	if n, ok := t.nodes[id]; ok {
		return n, leaf{}, nil
	}
	buf, err := t.p.Read(id)
	if err != nil {
		return nil, leaf{}, err
	}
	if len(buf) != pageSize {
		return nil, leaf{}, corrupt(id, fmt.Sprintf("%d bytes", len(buf)))
	}
	switch buf[0] {
	case typeLeaf:
		return nil, leaf{
			id: id, buf: buf,
			n:    int(binary.LittleEndian.Uint16(buf[1:])),
			next: binary.LittleEndian.Uint64(buf[3:]),
		}, nil
	case typeInner:
		n, err := decodeInner(id, buf)
		if err != nil {
			return nil, leaf{}, err
		}
		t.cacheNode(n)
		return n, leaf{}, nil
	}
	return nil, leaf{}, corrupt(id, fmt.Sprintf("type %d", buf[0]))
}

func decodeInner(id uint64, buf []byte) (*node, error) {
	nk := int(binary.LittleEndian.Uint16(buf[1:]))
	if nodeHeader+nk*(2+8) > pageSize {
		return nil, corrupt(id, fmt.Sprintf("%d inner keys", nk))
	}
	n := &node{id: id, keys: make([][]byte, nk), children: make([]uint64, 1, nk+1)}
	n.children[0] = binary.LittleEndian.Uint64(buf[3:])
	off := nodeHeader
	for i := range n.keys {
		if off+2 > pageSize {
			return nil, corrupt(id, "inner entry past the page")
		}
		kl := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		if kl > maxKey || off+kl+8 > pageSize {
			return nil, corrupt(id, "inner entry past the page")
		}
		n.keys[i] = bytes.Clone(buf[off : off+kl])
		off += kl
		n.children = append(n.children, binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
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

// descend walks from the root to the leaf that holds, or would hold, key.
func (t *Tree) descend(key []byte) (leaf, error) {
	id := t.root
	for depth := 0; depth < maxDepth; depth++ {
		n, l, err := t.load(id)
		if err != nil || n == nil {
			return l, err
		}
		id = n.children[n.child(key)]
	}
	return leaf{}, corrupt(id, "tree deeper than maxDepth")
}

// pagePool recycles whole-page buffers: Pager.Write copies the page into
// its cache, so a buffer is free again the moment Write returns and a Put
// need not allocate a page of its own.
var pagePool warmpool.Pool[[pageSize]byte]

// leafScratch is putLeaf's working space: the edited leaf, which runs
// past a page by up to one entry until it is split, and its entry offsets.
type leafScratch struct {
	buf  [2 * pageSize]byte
	offs [2*pageSize/entryHeader + 1]uint16
}

var scratchPool warmpool.Pool[leafScratch]

// storeNode serializes inner node n into its page.
func (t *Tree) storeNode(n *node) error {
	t.cacheNode(n)
	page := pagePool.Get()
	defer pagePool.Put(page)
	clear(page[:]) // bytes past the last entry are written too
	buf := page[:]
	buf[0] = typeInner
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	binary.LittleEndian.PutUint64(buf[3:], n.children[0])
	off := nodeHeader
	for i, k := range n.keys {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(k)))
		off += 2
		off += copy(buf[off:], k)
		binary.LittleEndian.PutUint64(buf[off:], n.children[i+1])
		off += 8
	}
	return t.p.Write(n.id, buf)
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
	l, err := t.descend(key)
	if err != nil {
		return nil, err
	}
	var offs [maxEntries + 1]uint16
	p, found, err := l.seek(key, offs[:], false)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, ErrNotFound
	}
	return t.value(dst, &l, p.off)
}

// value appends the value of l's checked entry at off to dst,
// materializing overflow chains.
func (t *Tree) value(dst []byte, l *leaf, off int) ([]byte, error) {
	b := l.buf
	vm := binary.LittleEndian.Uint32(b[off+2:])
	v := off + entryHeader + int(binary.LittleEndian.Uint16(b[off:]))
	if vm&ovflFlag != 0 {
		return t.p.ReadOverflow(dst, binary.LittleEndian.Uint64(b[v:]), int(vm&^ovflFlag))
	}
	return append(dst, b[v:v+int(vm)]...), nil
}

// emptyLeaf is the page an empty tree's first Put edits.
var emptyLeaf = [pageSize]byte{typeLeaf}

// Put inserts or replaces the value under key.
func (t *Tree) Put(key, val []byte) error {
	if len(key) > maxKey {
		return fmt.Errorf("btree: key length %d exceeds %d", len(key), maxKey)
	}
	if t.root == 0 {
		id, err := t.p.Alloc()
		if err != nil {
			return err
		}
		if _, _, err := t.putLeaf(leaf{id: id, buf: emptyLeaf[:]}, key, val, true); err != nil {
			return err
		}
		t.root = id
		return nil
	}
	sep, right, err := t.put(t.root, key, val, true, 0)
	if err != nil {
		return err
	}
	if right != 0 { // root split
		id, err := t.p.Alloc()
		if err != nil {
			return err
		}
		if err := t.storeNode(&node{id: id, keys: [][]byte{sep}, children: []uint64{t.root, right}}); err != nil {
			return err
		}
		t.root = id
	}
	return nil
}

// put inserts into the subtree at page id, returning a separator key and new
// right-sibling page when the node split. rightmost reports that id is the
// last node of its level.
func (t *Tree) put(id uint64, key, val []byte, rightmost bool, depth int) ([]byte, uint64, error) {
	if depth == maxDepth {
		return nil, 0, corrupt(id, "tree deeper than maxDepth")
	}
	n, l, err := t.load(id)
	if err != nil {
		return nil, 0, err
	}
	if n == nil {
		return t.putLeaf(l, key, val, rightmost)
	}
	i := n.child(key)
	rightmost = rightmost && i == len(n.keys)
	sep, right, err := t.put(n.children[i], key, val, rightmost, depth+1)
	if err != nil || right == 0 {
		return nil, 0, err
	}
	n.keys = slices.Insert(n.keys, i, sep)
	n.children = slices.Insert(n.children, i+1, right)
	return t.storeInner(n, rightmost)
}

// putLeaf inserts or replaces key in leaf l and writes the edited page,
// or both halves of its split when it no longer fits. rightmost reports
// that l is the last leaf of the tree.
func (t *Tree) putLeaf(l leaf, key, val []byte, rightmost bool) ([]byte, uint64, error) {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	p, found, err := l.seek(key, sc.offs[:], true)
	if err != nil {
		return nil, 0, err
	}
	end := int(sc.offs[l.n])
	var head uint64
	inline := val
	if len(val) > maxInline {
		if head, err = t.p.WriteOverflow(val); err != nil {
			return nil, 0, err
		}
		inline = nil
	}
	rest, nk := p.off, l.n+1
	if found {
		if old := l.spill(p.off); old != 0 {
			if err := t.p.FreeOverflow(old); err != nil {
				return nil, 0, err
			}
		}
		rest, nk = p.end, l.n
	}

	w := sc.buf[:]
	o := copy(w, l.buf[:p.off])
	binary.LittleEndian.PutUint16(w[o:], uint16(len(key)))
	if head != 0 {
		binary.LittleEndian.PutUint32(w[o+2:], uint32(len(val))|ovflFlag)
	} else {
		binary.LittleEndian.PutUint32(w[o+2:], uint32(len(inline)))
	}
	o += entryHeader
	o += copy(w[o:], key)
	if head != 0 {
		binary.LittleEndian.PutUint64(w[o:], head)
		o += 8
	} else {
		o += copy(w[o:], inline)
	}
	o += copy(w[o:], l.buf[rest:end])
	binary.LittleEndian.PutUint16(w[1:], uint16(nk))
	if o <= pageSize {
		clear(w[o:pageSize])
		return nil, 0, t.p.Write(l.id, w[:pageSize])
	}

	mid := nk / 2
	if rightmost && p.i == l.n { // past the last key: keep every old entry left
		mid = nk - 1
	}
	return t.splitLeaf(l.id, sc, o, nk, mid)
}

// splitLeaf writes the edited leaf in sc.buf[:size] (nk entries, over a
// page) as two pages, cut before entry mid — moved until both halves
// fit — and returns the right page's first key as the separator.
func (t *Tree) splitLeaf(id uint64, sc *leafScratch, size, nk, mid int) ([]byte, uint64, error) {
	rid, err := t.p.Alloc()
	if err != nil {
		return nil, 0, err
	}
	w := leaf{id: id, buf: sc.buf[:size], n: nk}
	offs := sc.offs[:nk+1]
	off := nodeHeader
	for i := range nk {
		offs[i] = uint16(off)
		if off, err = w.check(off); err != nil {
			return nil, 0, err
		}
	}
	offs[nk] = uint16(off)
	// Halving by count can leave one half over a page when entry sizes
	// differ widely (a run of near-maxInline values beside tiny ones):
	// move the cut until both halves fit. One exists, because the leaf
	// overflowed by a single entry of at most ~1.5 KiB.
	for int(offs[mid]) > pageSize {
		mid--
	}
	for nodeHeader+size-int(offs[mid]) > pageSize {
		mid++
	}
	cut := int(offs[mid])
	sep := bytes.Clone(w.key(cut))

	page := pagePool.Get()
	defer pagePool.Put(page)
	r := page[:]
	r[0] = typeLeaf
	binary.LittleEndian.PutUint16(r[1:], uint16(nk-mid))
	copy(r[3:nodeHeader], w.buf[3:nodeHeader]) // the old right sibling
	n := copy(r[nodeHeader:], w.buf[cut:])
	clear(r[nodeHeader+n:])
	binary.LittleEndian.PutUint16(w.buf[1:], uint16(mid))
	binary.LittleEndian.PutUint64(w.buf[3:], rid)
	left := sc.buf[:pageSize]
	clear(left[cut:])
	if err := t.p.Write(id, left); err != nil {
		return nil, 0, err
	}
	if err := t.p.Write(rid, r); err != nil {
		return nil, 0, err
	}
	return sep, rid, nil
}

// storeInner writes inner node n, splitting it first when it no longer
// fits a page. appended reports that n is the last node of its level and
// its new separator is its last key.
func (t *Tree) storeInner(n *node, appended bool) ([]byte, uint64, error) {
	if n.size() <= pageSize {
		return nil, 0, t.storeNode(n)
	}
	id, err := t.p.Alloc()
	if err != nil {
		return nil, 0, err
	}
	// Key mid moves up, into neither half. Past the right edge the
	// previous last key moves up and the new separator starts the right
	// node; otherwise halve, then move mid until both halves fit.
	mid := len(n.keys) / 2
	if appended {
		mid = len(n.keys) - 2
	}
	total, left := n.size(), nodeHeader
	for i := 0; i < mid; i++ {
		left += n.entrySize(i)
	}
	right := func() int { return nodeHeader + total - left - n.entrySize(mid) }
	for left > pageSize {
		mid--
		left -= n.entrySize(mid)
	}
	for right() > pageSize {
		left += n.entrySize(mid)
		mid++
	}
	sep := n.keys[mid]
	r := &node{id: id, keys: slices.Clone(n.keys[mid+1:]), children: slices.Clone(n.children[mid+1:])}
	n.keys, n.children = n.keys[:mid:mid], n.children[:mid+1:mid+1]
	if err := t.storeNode(n); err != nil {
		return nil, 0, err
	}
	if err := t.storeNode(r); err != nil {
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
	l, err := t.descend(key)
	if err != nil {
		return err
	}
	var offs [maxEntries + 1]uint16
	p, found, err := l.seek(key, offs[:], true)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	end := int(offs[l.n])
	if old := l.spill(p.off); old != 0 {
		if err := t.p.FreeOverflow(old); err != nil {
			return err
		}
	}
	page := pagePool.Get()
	defer pagePool.Put(page)
	w := page[:]
	o := copy(w, l.buf[:p.off])
	o += copy(w[o:], l.buf[p.end:end])
	clear(w[o:])
	binary.LittleEndian.PutUint16(w[1:], uint16(l.n-1))
	return t.p.Write(l.id, w)
}

// Free returns every page of the tree — nodes and overflow chains — to the
// pager and leaves the tree empty.
func (t *Tree) Free() error {
	if t.root != 0 {
		if err := t.free(t.root, 0); err != nil {
			return err
		}
	}
	t.root = 0
	clear(t.nodes)
	return nil
}

func (t *Tree) free(id uint64, depth int) error {
	if depth == maxDepth {
		return corrupt(id, "tree deeper than maxDepth")
	}
	n, l, err := t.load(id)
	if err != nil {
		return err
	}
	if n != nil {
		for _, c := range n.children {
			if err := t.free(c, depth+1); err != nil {
				return err
			}
		}
		delete(t.nodes, id)
	}
	for off, i := nodeHeader, 0; i < l.n; i++ {
		end, err := l.check(off)
		if err != nil {
			return err
		}
		if head := l.spill(off); head != 0 {
			if err := t.p.FreeOverflow(head); err != nil {
				return err
			}
		}
		off = end
	}
	return t.p.Free(id)
}

// Cursor iterates leaf entries in key order. Its key aliases the leaf
// page: valid until the tree is next modified.
type Cursor struct {
	t   *Tree
	p   pos
	err error
	// Brent's cycle check on the sibling chain: a corrupt link back to
	// an earlier leaf ends the walk with an error instead of looping.
	mark        uint64
	hops, power int
}

// Seek positions a cursor at the first key >= key.
func (t *Tree) Seek(key []byte) *Cursor {
	c := &Cursor{t: t}
	c.seek(key)
	return c
}

func (c *Cursor) seek(key []byte) {
	if c.t.root == 0 {
		return
	}
	l, err := c.t.descend(key)
	if err == nil {
		var offs [maxEntries + 1]uint16
		c.p, _, err = l.seek(key, offs[:], false)
	}
	if err != nil {
		c.fail(err)
		return
	}
	c.mark, c.power = l.id, 1
	c.settle()
}

// settle moves the cursor over exhausted leaves to the next entry and
// parses it.
func (c *Cursor) settle() {
	for c.p.i >= c.p.l.n {
		next := c.p.l.next
		if next == 0 {
			c.p = pos{}
			return
		}
		if next == c.mark {
			c.fail(corrupt(next, "leaf chain loops"))
			return
		}
		if c.hops++; c.hops == c.power {
			c.mark, c.power, c.hops = next, 2*c.power, 0
		}
		n, l, err := c.t.load(next)
		if err == nil && n != nil {
			err = corrupt(next, "leaf chain reaches an inner node")
		}
		if err != nil {
			c.fail(err)
			return
		}
		c.p = pos{l: l, off: nodeHeader}
	}
	end, err := c.p.l.check(c.p.off)
	if err != nil {
		c.fail(err)
		return
	}
	c.p.end = end
}

func (c *Cursor) fail(err error) { c.p, c.err = pos{}, err }

// First positions a cursor at the smallest key.
func (t *Tree) First() *Cursor { return t.Seek(nil) }

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.p.l.buf != nil }

// Err returns the first error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// Key returns the current key. Valid only when Valid().
func (c *Cursor) Key() []byte { return c.p.l.key(c.p.off) }

// Value returns the current value, materializing overflow chains.
func (c *Cursor) Value() ([]byte, error) { return c.t.value(nil, &c.p.l, c.p.off) }

// Next advances to the next entry in key order.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	c.p.off = c.p.end
	c.p.i++
	c.settle()
}

// Scan calls fn for each entry with key in [lo, hi); nil hi means unbounded.
// Iteration stops early when fn returns false. The key passed to fn is
// valid only during the call; the value is a copy.
func (t *Tree) Scan(lo, hi []byte, fn func(k, v []byte) bool) error {
	c := Cursor{t: t}
	for c.seek(lo); c.Valid(); c.Next() {
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
	return c.err
}

// Len walks the tree counting entries. O(n); intended for stats and tests.
func (t *Tree) Len() (int, error) {
	n := 0
	err := t.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}
