package service

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Columnar serving-path tests. The scatter/golden matrix in
// shard_test.go already runs every scan filter through the columnar
// engine (it is the default non-indexed path now); these tests pin the
// plan surface and the cross-shard-count row identity that the matrix
// only checks at N=1.

// TestColumnarPlanSurface: non-indexed filters report the column-scan
// physical operator, and its result agrees with the indexed path.
func TestColumnarPlanSurface(t *testing.T) {
	_, svc := synthUnsharded(t, 300, Config{Workers: 2})
	ctx := context.Background()
	str := func(s string) *string { return &s }

	scan, err := svc.Query(ctx, Request{
		Collection: shardTestCol,
		Filter:     &FilterSpec{Field: "label", Str: str("car")},
		NoCache:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scan.Plan, "column-scan(label)") {
		t.Fatalf("non-indexed filter plan %q does not use the columnar scan", scan.Plan)
	}
	indexed, err := svc.Query(ctx, Request{
		Collection: shardTestCol,
		Filter:     &FilterSpec{Field: "label", Str: str("car"), UseIndex: true},
		NoCache:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if scan.Value != indexed.Value {
		t.Fatalf("columnar count %d != indexed count %d", scan.Value, indexed.Value)
	}
}

// TestColumnarRowsShardCountInvariant: ordered top-k output is globally
// sorted at every shard count, so the ordered field's value sequence
// (and the result count) must match the unsharded reference exactly.
// Tie ORDER legitimately differs at N>1 (ties break by shard, PR-3
// contract), so the assertion compares the sort-key sequence, not row
// identity.
func TestColumnarRowsShardCountInvariant(t *testing.T) {
	const rows = 260
	str := func(s string) *string { return &s }
	reqs := []Request{
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("bus")},
			OrderBy: "rank", Limit: 11, NoCache: true},
		{Collection: shardTestCol, OrderBy: "score", Desc: true, Limit: 17, NoCache: true},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Int: ip(3)},
			OrderBy: "score", Limit: 9, NoCache: true},
	}
	keySeq := func(r *Response, field string) []any {
		out := make([]any, len(r.Rows))
		for i, row := range r.Rows {
			out[i] = rowField(row, field)
		}
		return out
	}
	_, ref := synthUnsharded(t, rows, Config{Workers: 2})
	ctx := context.Background()
	want := make([]*Response, len(reqs))
	for i, req := range reqs {
		r, err := ref.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, n := range []int{1, 3, 4} {
		_, svc := synthSharded(t, n, rows, Config{Workers: 2})
		for i, req := range reqs {
			r, err := svc.Query(ctx, req)
			if err != nil {
				t.Fatalf("N=%d query %d: %v", n, i, err)
			}
			if n == 1 {
				// One shard must reproduce the unsharded rows exactly.
				if !reflect.DeepEqual(refRows(want[i].Rows), refRows(r.Rows)) {
					t.Errorf("N=1 query %d: rows diverge from unsharded reference", i)
				}
			} else if !reflect.DeepEqual(keySeq(want[i], reqs[i].OrderBy), keySeq(r, reqs[i].OrderBy)) {
				t.Errorf("N=%d query %d: ordered %s sequence diverges from unsharded reference",
					n, i, reqs[i].OrderBy)
			}
			if r.Value != want[i].Value {
				t.Errorf("N=%d query %d: value %d, want %d", n, i, r.Value, want[i].Value)
			}
		}
	}
}

// TestColumnarScatterConcurrentAppends: columnar scatter fragments under
// concurrent appends must stay internally consistent (every query sees
// some complete snapshot: counts are multiples of the per-append batch
// pattern's car fraction bounds, never torn).
func TestColumnarScatterConcurrentAppends(t *testing.T) {
	const base = 120
	sdb, svc := synthSharded(t, 3, base, Config{Workers: 4, QueueDepth: 64})
	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	str := func(s string) *string { return &s }
	req := Request{
		Collection: shardTestCol,
		Filter:     &FilterSpec{Field: "label", Str: str("car")},
		OrderBy:    "rank", Limit: 5,
		NoCache: true,
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := base; i < base+90; i++ {
			if err := sc.Append(synthPatch(i)); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := svc.Query(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				// label cycles car/pedestrian/bus: a consistent snapshot
				// holds between base/3 and (base+90)/3 cars.
				if r.Value < base/3 || r.Value > (base+90)/3 {
					t.Errorf("torn columnar scatter count %d", r.Value)
					return
				}
			}
		}()
	}
	wg.Wait()

	final, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if final.Value != (base+90)/3 {
		t.Fatalf("final car count %d, want %d", final.Value, (base+90)/3)
	}
}
