package core

import (
	"fmt"
	"slices"
	"time"
)

// IndexKind selects a single-attribute access method. IdxSorted, the one
// kind, serves both of §3.2's hash and B+ tree lookups: each sealed
// segment of the field's column keeps its sort order (see Column.order),
// binary-searched for an equality run or a range's bounds. The
// multidimensional access method is VectorIndex's exact ball tree.
// The page-file B+ tree and hash index (internal/btree,
// internal/hashidx) and the R-tree (internal/rtree) are timed by Figure
// 6's index-build experiment and back no core operator.
type IndexKind int

// IdxSorted is the segment sort-order index.
const IdxSorted IndexKind = 1

// Deprecated: IdxBTree and IdxHash name the one kind, IdxSorted. ROADMAP
// item 25 deletes them with BuildIndex's kind parameter.
const (
	IdxBTree = IdxSorted
	IdxHash  = IdxSorted
)

func (k IndexKind) String() string {
	if k == IdxSorted {
		return "sorted"
	}
	return fmt.Sprintf("idx(%d)", int(k))
}

// Index records what one BuildIndex call took.
type Index struct {
	// BuildTime is the cost of making every sealed segment's order
	// ready (Figure 5's subject).
	BuildTime time.Duration
}

// BuildIndex declares the sorted index over field of col — the
// declaration, the bare field name, is part of col's descriptor, so it
// survives a reopen and is dropped with the collection — and sorts every
// sealed segment of field's column that has no order yet. Probes need no
// declaration: they sort what they touch. field must have a column (a
// declared int, float or string field), and kind must be IdxSorted.
func (db *DB) BuildIndex(col *Collection, field string, kind IndexKind) (*Index, error) {
	if kind != IdxSorted {
		return nil, fmt.Errorf("core: unknown index kind %v", kind)
	}
	start := time.Now()
	cs, err := col.Columns()
	if err != nil {
		return nil, err
	}
	c, ok := cs.Column(field)
	if !ok {
		return nil, fmt.Errorf("core: %s.%s has no column to index", col.Name(), field)
	}
	db.refresh.scalarSorted.Add(int64(c.sortSealed()))
	col.declareIndex(field)
	return &Index{BuildTime: time.Since(start)}, nil
}

// HasIndex reports whether BuildIndex declared an index over field of col.
func (db *DB) HasIndex(col *Collection, field string) bool {
	col.mu.Lock()
	defer col.mu.Unlock()
	return slices.Contains(col.indexes, field)
}

// declareIndex adds field to the collection's declared indexes, which
// the next Flush saves with its descriptor, when it is new.
func (c *Collection) declareIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !slices.Contains(c.indexes, field) {
		c.indexes = append(c.indexes, field)
	}
}
