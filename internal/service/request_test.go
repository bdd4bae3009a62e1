package service

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestFingerprintIgnoresDeadOrderFields: execution returns before the
// order/limit stage for similarity-join requests, so OrderBy/Desc/Limit
// must not fragment their cache keys — identical answers, one entry.
func TestFingerprintIgnoresDeadOrderFields(t *testing.T) {
	base := Request{
		Collection: "c",
		SimJoin:    &SimJoinSpec{Field: "emb", Eps: 0.2, MinCluster: 2},
		Distinct:   true,
	}
	withOrder := base
	withOrder.OrderBy, withOrder.Desc, withOrder.Limit = "score", true, 7
	if base.fingerprint(3, 42) != withOrder.fingerprint(3, 42) {
		t.Fatal("simjoin fingerprint varies with ignored OrderBy/Desc/Limit (cache fragmentation)")
	}
	// Plain filter queries DO execute order/limit: the fields must count.
	plain := Request{Collection: "c"}
	ordered := plain
	ordered.OrderBy, ordered.Limit = "score", 7
	if plain.fingerprint(3, 42) == ordered.fingerprint(3, 42) {
		t.Fatal("order/limit dropped from a query whose result they shape")
	}
	desc := ordered
	desc.Desc = true
	if ordered.fingerprint(3, 42) == desc.fingerprint(3, 42) {
		t.Fatal("desc dropped from an ordered query's fingerprint")
	}
}

// TestFingerprintRangeBounds: range bounds are semantic inputs — set vs
// absent and differing values must all key distinctly, and a range
// filter must never collide with an equality filter on the same field.
func TestFingerprintRangeBounds(t *testing.T) {
	mk := func(min, max *float64) Request {
		return Request{Collection: "c", Filter: &FilterSpec{Field: "score", Min: min, Max: max}}
	}
	keys := map[string]string{}
	for name, req := range map[string]Request{
		"min1":     mk(fp(1), nil),
		"max1":     mk(nil, fp(1)),
		"min1max2": mk(fp(1), fp(2)),
		"min0max2": mk(fp(0), fp(2)),
		"eq1":      {Collection: "c", Filter: &FilterSpec{Field: "score", Float: fp(1)}},
	} {
		keys[name] = string(req.fingerprint(3, 42))
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("fingerprint collision between %s and %s", prev, name)
		}
		seen[k] = name
	}
}

// TestRangeFilterValidation: structural and schema-level range errors
// are plan-time rejections.
func TestRangeFilterValidation(t *testing.T) {
	_, svc := synthUnsharded(t, 50, Config{Workers: 1})
	ctx := context.Background()
	for name, req := range map[string]Request{
		"mixed eq+range": {Collection: shardTestCol,
			Filter: &FilterSpec{Field: "score", Float: fp(1), Min: fp(0)}},
		"empty range": {Collection: shardTestCol,
			Filter: &FilterSpec{Field: "score", Min: fp(2), Max: fp(2)}},
		"string field": {Collection: shardTestCol,
			Filter: &FilterSpec{Field: "label", Min: fp(0)}},
		"vector field": {Collection: shardTestCol,
			Filter: &FilterSpec{Field: "emb", Max: fp(1)}},
		"undeclared field": {Collection: shardTestCol,
			Filter: &FilterSpec{Field: "ghost", Min: fp(0)}},
	} {
		if _, err := svc.Query(ctx, req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRangeFilterResults: the columnar range path returns exactly the
// row-predicate reference set — over int and float fields, open and
// closed bounds, sharded and unsharded, with the column-scan plan label
// surfaced on both.
func TestRangeFilterResults(t *testing.T) {
	const rows = 300
	// Row-side reference: synthPatch(i) has score = i%4, rank = i%6.
	refCount := func(field string, lo, hi float64) int {
		n := 0
		for i := 0; i < rows; i++ {
			var v float64
			if field == "score" {
				v = float64(i % 4)
			} else {
				v = float64(i % 6)
			}
			if v >= lo && v < hi {
				n++
			}
		}
		return n
	}
	cases := []struct {
		field    string
		min, max *float64
		lo, hi   float64
	}{
		{"score", fp(1), fp(3), 1, 3},
		{"score", fp(2), nil, 2, 1e300},
		{"rank", nil, fp(4), -1e300, 4},
		{"rank", fp(1.5), fp(4.5), 1.5, 4.5}, // fractional bounds over ints
	}
	_, plain := synthUnsharded(t, rows, Config{Workers: 2})
	_, sharded := synthSharded(t, 3, rows, Config{Workers: 2})
	ctx := context.Background()
	for _, tc := range cases {
		req := Request{Collection: shardTestCol,
			Filter: &FilterSpec{Field: tc.field, Min: tc.min, Max: tc.max}, NoCache: true}
		want := refCount(tc.field, tc.lo, tc.hi)
		for label, svc := range map[string]*Service{"unsharded": plain, "sharded-3": sharded} {
			r, err := svc.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s %s[%v,%v): %v", label, tc.field, tc.lo, tc.hi, err)
			}
			if r.Value != want {
				t.Errorf("%s %s[%v,%v): value %d, want %d", label, tc.field, tc.lo, tc.hi, r.Value, want)
			}
			if !strings.Contains(r.Plan, "column-scan("+tc.field+")") {
				t.Errorf("%s %s range plan %q lacks the column-scan label", label, tc.field, r.Plan)
			}
		}
	}
	// Ordered range rows keep the columnar order-by path and global sort.
	r, err := plain.Query(ctx, Request{Collection: shardTestCol,
		Filter:  &FilterSpec{Field: "rank", Min: fp(2), Max: fp(5)},
		OrderBy: "score", Desc: true, Limit: 9, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("ordered range returned %d rows", len(r.Rows))
	}
	prev := rowField(r.Rows[0], "score").(float64)
	for _, row := range r.Rows[1:] {
		if got := rowField(row, "score").(float64); got > prev {
			t.Fatalf("ordered range rows not descending: %g after %g", got, prev)
		} else {
			prev = got
		}
		if rank := rowField(row, "rank").(int64); rank < 2 || rank >= 5 {
			t.Fatalf("row escapes range bound: rank %d", rank)
		}
	}
}

// TestBTreeRangeFilterMatchesColumnScan: the sorted index's range path is a
// physical-plan swap — same rows and counts as the column scan under
// every bound shape, with its own plan label, sharded and unsharded.
func TestBTreeRangeFilterMatchesColumnScan(t *testing.T) {
	const rows = 300
	cases := []struct {
		field    string
		min, max *float64
	}{
		{"score", fp(1), fp(3)},
		{"score", fp(2), nil},
		{"score", nil, fp(3)},
		{"rank", fp(1.5), fp(4.5)}, // fractional bounds over ints
		{"rank", fp(2), nil},
		{"rank", nil, fp(4)},
		{"score", fp(7), nil}, // empty result
	}
	_, plain := synthUnsharded(t, rows, Config{Workers: 2})
	_, sharded := synthSharded(t, 3, rows, Config{Workers: 2})
	ctx := context.Background()
	for _, tc := range cases {
		scan := Request{Collection: shardTestCol,
			Filter: &FilterSpec{Field: tc.field, Min: tc.min, Max: tc.max}, NoCache: true}
		indexed := scan
		f := *scan.Filter
		f.UseIndex = true
		indexed.Filter = &f
		for label, svc := range map[string]*Service{"unsharded": plain, "sharded-3": sharded} {
			sr, err := svc.Query(ctx, scan)
			if err != nil {
				t.Fatalf("%s scan %s: %v", label, tc.field, err)
			}
			ir, err := svc.Query(ctx, indexed)
			if err != nil {
				t.Fatalf("%s indexed %s: %v", label, tc.field, err)
			}
			if ir.Value != sr.Value {
				t.Errorf("%s %s: indexed value %d, column scan %d", label, tc.field, ir.Value, sr.Value)
			}
			if !strings.Contains(ir.Plan, "sorted-segments("+tc.field+")") {
				t.Errorf("%s %s: indexed plan %q lacks the sorted-segments label", label, tc.field, ir.Plan)
			}
			if strings.Contains(sr.Plan, "sorted-segments") {
				t.Errorf("%s %s: scan plan %q took the index path uninvited", label, tc.field, sr.Plan)
			}
		}
		// Unsharded rows are snapshot-ordered on both paths: identical.
		sr, _ := plain.Query(ctx, scan)
		ir, _ := plain.Query(ctx, indexed)
		if !reflect.DeepEqual(refRows(sr.Rows), refRows(ir.Rows)) {
			t.Errorf("%s[%v,%v): indexed rows diverge from column scan", tc.field, tc.min, tc.max)
		}
	}
}

// TestResponseSizeBytesCountsWideValues: a row is charged as a handle —
// its patch is resident in its collection — and its values through the
// result's encoded head, so a wide row cannot occupy the result cache
// nearly for free.
func TestResponseSizeBytesCountsWideValues(t *testing.T) {
	rows := func(v core.Value) []Row {
		return []Row{{tab: core.TableOf(&core.Patch{ID: 1, Meta: core.Metadata{"a": v}})}}
	}
	narrow := &Response{Rows: rows(core.IntV(1))}
	wide := &Response{Rows: rows(core.StrV(strings.Repeat("v", 600)))}
	if n, w, want := narrow.sizeBytes(), wide.sizeBytes(), (&Response{}).sizeBytes()+rowBytes; n != want || w != want {
		t.Fatalf("one-row responses charged %d and %d bytes before encoding, want %d (a handle)", n, w, want)
	}
	charged := func(r *Response) int64 {
		c := NewCache(1 << 20)
		c.Put("k", r, r.sizeBytes())
		r.wire = &wireMemo{cache: c, key: "k", entry: r}
		if _, err := r.wire.headFor(r); err != nil {
			t.Fatal(err)
		}
		return c.Stats().Bytes
	}
	if n, w := charged(narrow), charged(wide); w < n+600 {
		t.Fatalf("encoded heads charged %d (wide) vs %d (narrow) bytes: the 600-byte value went uncounted", w, n)
	}
}
