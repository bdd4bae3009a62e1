package core

import "context"

// Selection is one DB.Select's matches over the caller's snapshot, in
// the form its access path produces them, plus what the path's run
// reports.
type Selection struct {
	// Method is the access path that ran: a column scan over a field the
	// store cannot columnize reports the row scan it fell back to.
	Method FilterMethod
	Sel    []int32   // scans: matching rows of the snapshot, ascending
	IDs    []PatchID // index probes: matching patch ids, ascending

	// Column scans keep the store they evaluated (so order-by can stay
	// columnar), its pruning record and what serving the store took.
	Store   *ColumnStore
	Scan    ScanStats
	ColInfo ColumnsInfo

	// Index probes report what bringing the index current took.
	Refresh Refresh
}

// Indexed reports whether the selection ran as an index probe (matches
// in IDs) rather than a scan (matches in Sel).
func (s *Selection) Indexed() bool {
	return s.Method == FilterHashIndex || s.Method == FilterBTreeIndex
}

// Len is the number of matches.
func (s *Selection) Len() int {
	if s.Indexed() {
		return len(s.IDs)
	}
	return len(s.Sel)
}

// ctxCheckRows is the row stride between cancellation checks in scan
// and fetch loops: frequent enough to abandon a dead query promptly,
// sparse enough that the atomic ctx.Err() load never shows up in
// profiles.
const ctxCheckRows = 4096

// Patches materializes the first max matches (max < 0: all of them) in
// snapshot order from the snapshot Select ran over. Index probes pay one
// fetch per id, checking ctx between blocks of them so a canceled caller
// (or a hedge loser) stops promptly.
func (s *Selection) Patches(ctx context.Context, col *Collection, snap []*Patch, max int) ([]*Patch, error) {
	n := s.Len()
	if max >= 0 && max < n {
		n = max
	}
	out := make([]*Patch, n)
	if !s.Indexed() {
		for k, i := range s.Sel[:n] {
			out[k] = snap[i]
		}
		return out, nil
	}
	for k, id := range s.IDs[:n] {
		if k%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		p, err := col.Get(id)
		if err != nil {
			return nil, err
		}
		out[k] = p
	}
	return out, nil
}

// Select runs pred over the caller's snapshot (snap, ver) of col with
// the given access path — the one selection implementation behind
// ExecuteFilter and the serving layer's filter fragments:
//
//   - FilterHashIndex / FilterBTreeIndex probe the field's index, created
//     on first use and brought current for the snapshot by core. A range
//     needs the B-tree and runs as its two-probe numeric range.
//   - FilterColumnScan evaluates pred over the collection's columnar
//     projection (zone maps skip blocks that cannot match, surviving
//     blocks compare typed arrays) and falls back to the row scan when
//     the field has no column.
//   - FilterScan tests every row with Pred.Match, checking ctx between
//     blocks of rows.
//
// Every path answers the rows Pred.Match accepts, in snapshot order.
// Select does not type-check pred against the schema; planners do.
func (db *DB) Select(ctx context.Context, col *Collection, snap []*Patch, ver uint64, pred Pred, method FilterMethod) (Selection, error) {
	s := Selection{Method: method}
	switch method {
	case FilterHashIndex, FilterBTreeIndex:
		kind := IdxHash
		if method == FilterBTreeIndex {
			kind = IdxBTree
		}
		idx, err := db.EnsureIndex(col, pred.Field, kind)
		if err != nil {
			return s, err
		}
		if pred.Range {
			s.IDs, s.Refresh, err = idx.numericRange(snap, ver, pred.Lo, pred.Hi)
		} else {
			s.IDs, s.Refresh, err = idx.lookupEq(snap, ver, pred.V)
		}
		return s, err
	case FilterColumnScan:
		// The cached store may already reflect rows appended after the
		// snapshot was taken; snapshot prefixes are stable, so clipping
		// the selection by row index is exact.
		if cs, info, err := col.ColumnsWithInfo(); err == nil {
			var ok bool
			if pred.Range {
				s.Sel, s.Scan, ok = cs.FilterRangeStats(pred.Field, pred.Lo, pred.Hi)
			} else {
				s.Sel, s.Scan, ok = cs.FilterEqStats(pred.Field, pred.V)
			}
			if ok {
				for len(s.Sel) > 0 && int(s.Sel[len(s.Sel)-1]) >= len(snap) {
					s.Sel = s.Sel[:len(s.Sel)-1]
				}
				if s.Sel == nil {
					s.Sel = []int32{} // TopK reads a nil selection as "every row"
				}
				s.Store, s.ColInfo = cs, info
				return s, nil
			}
		}
	}
	// The row scan, and the fallback for fields with no column (mixed
	// kinds, vectors, all-null).
	s = Selection{Method: FilterScan, Sel: make([]int32, 0, len(snap)/4)}
	for k, p := range snap {
		if k%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return Selection{}, err
			}
		}
		if pred.Match(p) {
			s.Sel = append(s.Sel, int32(k))
		}
	}
	return s, nil
}

// ExecuteFilter runs an equality selection with the given access path
// over col's current snapshot and materializes the matches.
func (db *DB) ExecuteFilter(col *Collection, field string, v Value, method FilterMethod) ([]*Patch, error) {
	snap, ver, err := col.Snapshot()
	if err != nil {
		return nil, err
	}
	ctx := context.TODO()
	s, err := db.Select(ctx, col, snap, ver, Pred{Field: field, V: v}, method)
	if err != nil {
		return nil, err
	}
	return s.Patches(ctx, col, snap, -1)
}
