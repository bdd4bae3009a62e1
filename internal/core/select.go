package core

import "context"

// KeepKind names what a selection keeps of its matches.
type KeepKind uint8

// What a scan keeps. Every kind still counts every match.
const (
	KeepAll   KeepKind = iota // every match, ascending (joins, clustering)
	KeepCount                 // no rows
	KeepFirst                 // the first N matches, ascending
	KeepTop                   // the first N of a stable sort by Field, in that order
)

// Keep is the consumer a scan folds its matches into: what the query
// reads of them. The zero value keeps every match.
type Keep struct {
	Kind  KeepKind
	N     int    // KeepFirst, KeepTop: the row count
	Field string // KeepTop: the order-by field
	Desc  bool   // KeepTop: descending
}

// Selection is one Snapshot.Select's matches, kept as its Keep asks,
// plus what the access path's run reports.
type Selection struct {
	// Method is the access path that ran: a column scan over a field the
	// store cannot columnize reports the row scan it fell back to. 0 is
	// no predicate: every row matched.
	Method FilterMethod
	N      int     // the exact match count, whatever was kept
	Sel    []int32 // the kept rows of the snapshot, in Keep's order

	// Column scans and index probes report their pruning record and
	// what serving the store took.
	Scan    ScanStats
	ColInfo ColumnsInfo
}

// Indexed reports whether the selection ran as an index probe rather
// than a scan.
func (s *Selection) Indexed() bool {
	return s.Method == FilterIndex
}

// ctxCheckRows is the row stride between cancellation checks in scan
// loops: frequent enough to abandon a dead query promptly, sparse
// enough that the atomic ctx.Err() load never shows up in profiles.
const ctxCheckRows = 4096

// keeper folds a selection's matches, one ascending block at a time,
// into what its Keep asks for, counting all of them.
type keeper struct {
	keep Keep
	n    int
	sel  []int32  // KeepAll, KeepFirst
	top  *topKeep // KeepTop
}

// newKeeper returns keep's consumer for a selection over snap. A top-k
// orders by cs's column for the field when there is one, else by snap's
// rows.
func newKeeper(keep Keep, cs *ColumnStore, snap Snapshot) keeper {
	k := keeper{keep: keep}
	if keep.Kind == KeepTop && keep.N > 0 {
		k.top = newTopKeep(cs, snap, keep.Field, keep.Desc, min(keep.N, snap.Len()))
	}
	return k
}

// fold takes one block of matching rows: ascending, all in one segment.
// pd is that segment's data of column pc when the block came from a
// column scan.
func (k *keeper) fold(rows []int32, pc *Column, pd *segData) {
	k.n += len(rows)
	switch k.keep.Kind {
	case KeepAll:
		k.sel = append(k.sel, rows...)
	case KeepFirst:
		if room := k.keep.N - len(k.sel); room > 0 {
			k.sel = append(k.sel, rows[:min(room, len(rows))]...)
		}
	case KeepTop:
		if k.top != nil {
			k.top.offer(rows, pc, pd)
		}
	}
}

// result returns the match count and the kept rows.
func (k *keeper) result() (int, []int32) {
	if k.top != nil {
		k.sel = k.top.rows()
	}
	return k.n, k.sel
}

// Select runs pred over the snapshot with the given access path — the
// one selection implementation behind ExecuteFilter and the serving
// layer's fragments — and keeps of the matches what keep asks for:
//
//   - FilterColumnScan evaluates pred over the collection's columnar
//     projection (zone maps skip blocks that cannot match, surviving
//     blocks compare typed arrays, stopping at the snapshot's last row)
//     and falls back to the row scan when the field has no column.
//   - FilterIndex runs the column scan with each surviving sealed
//     segment binary-searched through its sort order, sorted on first
//     use (see ColumnStore.scan), for an equality or a range. It falls
//     back like the column scan.
//   - FilterScan tests every row with Pred.Match, checking ctx between
//     blocks of rows.
//   - 0 takes no predicate: every row of the snapshot matches.
//
// Every path folds its matches, one segment's block at a time, into
// keep's consumer, so it holds no more rows than it keeps: none for a
// count, the first N, or a bounded top-N heap. Every path matches the
// rows Pred.Match accepts, and N counts all of them. Select does not
// type-check pred against the schema; planners do.
func (snap Snapshot) Select(ctx context.Context, pred Pred, method FilterMethod, keep Keep) (Selection, error) {
	s := Selection{Method: method}
	// A column scan or index probe, and a top-k ordered by a column, read
	// the cached store. It may already reflect rows appended after the
	// snapshot was taken; snapshots are prefix-stable, so stopping at the
	// snapshot's row count is exact.
	columnar := method == FilterColumnScan || s.Indexed()
	var cs *ColumnStore
	var info ColumnsInfo
	if columnar || keep.Kind == KeepTop {
		if c, in, err := snap.col.ColumnsWithInfo(); err == nil && c.at.Len() >= snap.Len() {
			cs, info = c, in
		}
	}
	k := newKeeper(keep, cs, snap)
	if columnar && cs != nil {
		var ok bool
		if s.Scan, ok = cs.scan(&pred, snap.Len(), &k, s.Indexed()); ok {
			if s.Scan.Sorted > 0 {
				snap.col.db.refresh.scalarSorted.Add(int64(s.Scan.Sorted))
			}
			s.ColInfo = info
			s.N, s.Sel = k.result()
			return s, nil
		}
	}
	// The row scan, the fallback for fields with no column (any field the
	// schema does not declare as int, float or string), and the
	// unfiltered walk. Match tests one view of each row in turn.
	all := method == 0
	if !all {
		s.Method = FilterScan
	}
	var blk [ColumnBlockSize]int32
	var view Patch // the row Match tests
	for lo := 0; lo < snap.Len(); lo += ColumnBlockSize {
		if lo%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return Selection{}, err
			}
		}
		if all && (keep.Kind == KeepCount || keep.Kind == KeepFirst && len(k.sel) >= keep.N) {
			k.n = snap.Len() // the rest can only add to the count
			break
		}
		hi, c := min(lo+ColumnBlockSize, snap.Len()), 0
		for r := lo; r < hi; r++ {
			if !all {
				snap.tab.View(r, &view)
			}
			if all || pred.Match(&view) {
				blk[c] = int32(r)
				c++
			}
		}
		if c > 0 {
			k.fold(blk[:c], nil, nil)
		}
	}
	s.N, s.Sel = k.result()
	return s, nil
}

// ExecuteFilter runs an equality selection with the given access path
// over col's current snapshot and materializes the matches.
func (db *DB) ExecuteFilter(col *Collection, field string, v Value, method FilterMethod) ([]*Patch, error) {
	snap, err := col.Current()
	if err != nil {
		return nil, err
	}
	s, err := snap.Select(context.TODO(), Pred{Field: field, V: v}, method, Keep{})
	if err != nil {
		return nil, err
	}
	return snap.Materialize(s.Sel), nil
}
