package core

import (
	"fmt"
	"slices"
	"time"
)

// IndexKind selects a single-attribute access method (§3.2's hash and B+
// tree). Both kinds probe one structure: the sort order each sealed
// segment of the field's column keeps (see Column.order), binary-searched
// for an equality run or a range's bounds. The multidimensional access
// method is VectorIndex's exact ball tree.
// The page-file B+ tree and hash index (internal/btree,
// internal/hashidx) and the R-tree (internal/rtree) are timed by Figure
// 6's index-build experiment and back no core operator.
type IndexKind int

// Supported index kinds.
const (
	IdxBTree IndexKind = iota + 1
	IdxHash
)

func (k IndexKind) String() string {
	switch k {
	case IdxBTree:
		return "btree"
	case IdxHash:
		return "hash"
	default:
		return fmt.Sprintf("idx(%d)", int(k))
	}
}

// Index records what one BuildIndex call took.
type Index struct {
	// BuildTime is the cost of making every sealed segment's order
	// ready (Figure 5's subject).
	BuildTime time.Duration
}

// indexDecl names a declared index in its collection's descriptor.
func indexDecl(field string, kind IndexKind) string { return field + "/" + kind.String() }

// BuildIndex declares a hash or B+ tree index over field of col — the
// declaration is part of col's descriptor, so it survives a reopen and
// is dropped with the collection — and sorts every sealed segment of
// field's column that has no order yet. Probes need no declaration:
// they sort what they touch. field must have a column (a declared int,
// float or string field).
func (db *DB) BuildIndex(col *Collection, field string, kind IndexKind) (*Index, error) {
	if kind != IdxBTree && kind != IdxHash {
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
	return &Index{BuildTime: time.Since(start)}, col.declareIndex(indexDecl(field, kind))
}

// HasIndex reports whether BuildIndex declared the index on col.
func (db *DB) HasIndex(col *Collection, field string, kind IndexKind) bool {
	col.mu.Lock()
	defer col.mu.Unlock()
	return slices.Contains(col.indexes, indexDecl(field, kind))
}

// declareIndex adds decl to the collection's declared indexes and saves
// the descriptor when it is new.
func (c *Collection) declareIndex(decl string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slices.Contains(c.indexes, decl) {
		return nil
	}
	c.indexes = append(c.indexes, decl)
	return c.saveDescLocked()
}
