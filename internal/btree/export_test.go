package btree

import (
	"bytes"
	"fmt"
	"slices"
)

// CheckPages walks the whole tree and reports the first structural fault:
// a page that does not parse (an entry running past it), a cached inner
// node that differs from its page or would not fit it, keys out of order
// or outside the range their parent assigns, leaves at different depths,
// or a sibling chain that skips or reorders leaves.
func (t *Tree) CheckPages() error {
	if t.root == 0 {
		return nil
	}
	var leaves []leaf
	leafDepth := -1
	var walk func(id uint64, depth int, lo, hi []byte) error
	walk = func(id uint64, depth int, lo, hi []byte) error {
		if depth == maxDepth {
			return corrupt(id, "too deep")
		}
		n, l, err := t.load(id)
		if err != nil {
			return err
		}
		if n != nil {
			if n.size() > pageSize {
				return fmt.Errorf("inner page %d holds %d bytes", id, n.size())
			}
			buf, err := t.p.Read(id)
			if err != nil {
				return err
			}
			onPage, err := decodeInner(id, buf)
			if err != nil {
				return err
			}
			if !slices.EqualFunc(onPage.keys, n.keys, bytes.Equal) || !slices.Equal(onPage.children, n.children) {
				return fmt.Errorf("inner page %d: cached node differs from the page", id)
			}
			for i, k := range n.keys {
				if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) ||
					(i > 0 && bytes.Compare(n.keys[i-1], k) >= 0) {
					return fmt.Errorf("inner page %d: key %d out of order", id, i)
				}
			}
			for i, c := range n.children {
				clo, chi := lo, hi
				if i > 0 {
					clo = n.keys[i-1]
				}
				if i < len(n.keys) {
					chi = n.keys[i]
				}
				if err := walk(c, depth+1, clo, chi); err != nil {
					return err
				}
			}
			return nil
		}
		if leafDepth >= 0 && depth != leafDepth {
			return fmt.Errorf("leaf %d at depth %d, first leaf at %d", id, depth, leafDepth)
		}
		leafDepth = depth
		var offs [maxEntries + 1]uint16
		if _, _, err := l.seek(nil, offs[:], true); err != nil {
			return err
		}
		for i := 0; i < l.n; i++ {
			k := l.key(int(offs[i]))
			if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) ||
				(i > 0 && bytes.Compare(l.key(int(offs[i-1])), k) >= 0) {
				return fmt.Errorf("leaf %d: key %d out of order", id, i)
			}
		}
		leaves = append(leaves, l)
		return nil
	}
	if err := walk(t.root, 0, nil, nil); err != nil {
		return err
	}
	for i, l := range leaves {
		want := uint64(0)
		if i+1 < len(leaves) {
			want = leaves[i+1].id
		}
		if l.next != want {
			return fmt.Errorf("leaf %d links to %d, next leaf is %d", l.id, l.next, want)
		}
	}
	return nil
}
