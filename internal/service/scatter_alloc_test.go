package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// missAllocRows fills every shard of a 3-shard fixture with at least two
// sealed column segments, so the fragments scan the way a benchmark
// shard's do: zone maps, sealed segments and an unsealed tail.
const missAllocRows = 7 * core.ColumnBlockSize

// missAllocCase is one scan_* shape of the benchmark as a no_cache miss,
// with its allocation ceilings at N=1 and N=3: the counts measured at
// GOMAXPROCS 1, 2 and 4 (go1.24, linux/amd64). Before fragments were
// read in place, pooled and labeled once per query, the same misses
// cost 32/71, 21/44 and 16/35.
type missAllocCase struct {
	name     string
	body     string
	max1     float64
	max3     float64
	wantRows int
}

var missAllocCases = []missAllocCase{
	{"range top-10", `{"collection":"` + shardTestCol + `","filter":{"field":"score","min":1,"max":3},"order_by":"score","limit":10,"no_cache":true}`, 17, 23, 10},
	{"label eq limit 20", `{"collection":"` + shardTestCol + `","filter":{"field":"label","str":"car"},"limit":20,"no_cache":true}`, 15, 21, 20},
	{"rank range count", `{"collection":"` + shardTestCol + `","filter":{"field":"rank","min":1,"max":3},"no_cache":true}`, 12, 16, 0},
}

// maxAllocsPerExtraFragment bounds what one more shard adds to a miss:
// (N3 - N1) / 2 allocations, 9.5-19.5 before.
const maxAllocsPerExtraFragment = 5

// missAllocs serves each case's request once through the handler, which
// builds the columns it scans, checks the answer, then counts a miss's
// allocations over 100 more.
func missAllocs(t *testing.T, s *Service) []float64 {
	t.Helper()
	h := s.Handler()
	w := &sinkWriter{hdr: http.Header{}}
	out := make([]float64, len(missAllocCases))
	for i, c := range missAllocCases {
		body := []byte(c.body)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/query", rd)
		serve := func() {
			rd.Reset(body)
			w.status, w.body = 0, w.body[:0]
			h.ServeHTTP(w, req)
		}
		serve()
		r := checkWire(t, c.name, w.status, w.body)
		if r.CacheHit || len(r.Rows) != c.wantRows {
			t.Fatalf("%s: hit=%v rows=%d, want a %d-row miss", c.name, r.CacheHit, len(r.Rows), c.wantRows)
		}
		out[i] = testing.AllocsPerRun(100, serve)
	}
	return out
}

// TestScatterMissAllocs pins what a no_cache miss allocates through the
// handler for the benchmark's three scan shapes, at one and three
// shards: each under its ceiling, and each extra fragment adding at
// most maxAllocsPerExtraFragment.
func TestScatterMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	one := missAllocs(t, obsFixture(t, 1, missAllocRows, Config{Workers: 1}))
	s3 := obsFixture(t, 3, missAllocRows, Config{Workers: 1})
	scol, err := s3.shards.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < scol.Shards(); i++ {
		snap, err := scol.Replica(i, 0).Current()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Len() < 2*core.ColumnBlockSize {
			t.Fatalf("shard %d holds %d rows, want two sealed segments", i, snap.Len())
		}
	}
	three := missAllocs(t, s3)
	for i, c := range missAllocCases {
		t.Logf("%s: %.0f allocations at N=1, %.0f at N=3", c.name, one[i], three[i])
		if one[i] > c.max1 {
			t.Errorf("%s at N=1: %.0f allocations per miss, want <= %.0f", c.name, one[i], c.max1)
		}
		if three[i] > c.max3 {
			t.Errorf("%s at N=3: %.0f allocations per miss, want <= %.0f", c.name, three[i], c.max3)
		}
		if per := (three[i] - one[i]) / 2; per > maxAllocsPerExtraFragment {
			t.Errorf("%s: %.1f allocations per extra fragment, want <= %d", c.name, per, maxAllocsPerExtraFragment)
		}
	}
}

// joinAllocRows is item 29's probe size: the matrix fixture's rows.
const joinAllocRows = 240

// joinAllocCase is a similarity-join shape as a no_cache miss, with its
// allocation ceilings at N=1 and N=3: the largest counts measured at
// GOMAXPROCS 1, 2 and 4 (go1.24, linux/amd64; the distinct join read 183
// at N=3 in 59 of 60 runs and 184 in one) once the join formatted one
// plan label per request, not one per task. With a label per task, N=3
// cost 134 and 198.
type joinAllocCase struct {
	name       string
	body       string
	max1, max3 float64
}

var joinAllocCases = []joinAllocCase{
	{"simjoin", `{"collection":"` + shardTestCol + `","simjoin":{"field":"emb","eps":0.2},"no_cache":true}`, 35, 119},
	{"distinct simjoin", `{"collection":"` + shardTestCol + `","simjoin":{"field":"emb","eps":0.2,"min_cluster":2},"distinct":true,"no_cache":true}`, 97, 184},
}

// joinAllocs serves each join case once through the handler, checks it
// is a miss that found pairs, then counts a miss's allocations over 50
// more.
func joinAllocs(t *testing.T, s *Service) []float64 {
	t.Helper()
	h := s.Handler()
	w := &sinkWriter{hdr: http.Header{}}
	out := make([]float64, len(joinAllocCases))
	for i, c := range joinAllocCases {
		body := []byte(c.body)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/query", rd)
		serve := func() {
			rd.Reset(body)
			w.status, w.body = 0, w.body[:0]
			h.ServeHTTP(w, req)
		}
		serve()
		r := checkWire(t, c.name, w.status, w.body)
		if r.CacheHit || r.Value == 0 || !strings.Contains(r.Plan, "simjoin[") {
			t.Fatalf("%s: hit=%v value=%d plan %q, want a joining miss", c.name, r.CacheHit, r.Value, r.Plan)
		}
		out[i] = testing.AllocsPerRun(50, serve)
	}
	return out
}

// TestScatterJoinAllocs pins what a no_cache similarity-join miss
// allocates through the handler, plain and distinct, at one shard (one
// join task) and three (three local and three cross tasks).
func TestScatterJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	one := joinAllocs(t, obsFixture(t, 1, joinAllocRows, Config{Workers: 1}))
	three := joinAllocs(t, obsFixture(t, 3, joinAllocRows, Config{Workers: 1}))
	for i, c := range joinAllocCases {
		t.Logf("%s: %.0f allocations at N=1, %.0f at N=3", c.name, one[i], three[i])
		if one[i] > c.max1 {
			t.Errorf("%s at N=1: %.0f allocations per miss, want <= %.0f", c.name, one[i], c.max1)
		}
		if three[i] > c.max3 {
			t.Errorf("%s at N=3: %.0f allocations per miss, want <= %.0f", c.name, three[i], c.max3)
		}
	}
}

// TestResultRowIsHandle: a result row is a 24-byte handle on its row in
// the answering replica's row table, with no patch behind it. Over a
// 3-shard fixture, concatenating the fragments' kept rows and merging
// their sorted rows each allocate the row list and nothing else, and
// every handle reads the row it names: Get of each field it carries
// equals the committed row's.
func TestResultRowIsHandle(t *testing.T) {
	if got := unsafe.Sizeof(Row{}); got != rowBytes {
		t.Fatalf("a Row takes %d bytes, rowBytes is %d", got, rowBytes)
	}
	s := obsFixture(t, 3, missAllocRows, Config{Workers: 1})
	scol, err := s.shards.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]*shardFragment, scol.Shards())
	for i := range frags {
		snap, err := scol.Replica(i, 0).Current()
		if err != nil {
			t.Fatal(err)
		}
		sel := make([]int32, 0, 40)
		for r := 0; r < snap.Len() && len(sel) < cap(sel); r += 53 {
			sel = append(sel, int32(r))
		}
		frags[i] = &shardFragment{snap: snap, Selection: core.Selection{Sel: sel}}
	}
	var want []*core.Patch // the concatenation's rows
	for _, f := range frags {
		for _, r := range f.Sel {
			want = append(want, f.snap.Row(int(r)))
		}
	}
	want = want[:100]
	var rows []Row
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"concat", func() { rows = concatRows(frags, 100) }},
		{"merge", func() { rows, _ = mergeSortedRows(ctx, frags, "rank", false, 100) }},
	} {
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(50, c.build); allocs != 1 {
				t.Errorf("%s: building rows allocates %.0f times, want 1 (the row list)", c.name, allocs)
			}
		}
		c.build()
		if len(rows) != 100 {
			t.Fatalf("%s: %d rows, want 100", c.name, len(rows))
		}
		for i, r := range rows {
			p := r.patch()
			if c.name == "concat" && p.ID != want[i].ID {
				t.Fatalf("concat: row %d is id %d, want %d", i, p.ID, want[i].ID)
			}
			label, _ := p.Get("label")
			score, _ := p.Get("score")
			rank, _ := p.Get("rank")
			for f, v := range map[string]any{"label": label.Str(), "score": score.Float(), "rank": rank.Int(),
				"_id": uint64(p.ID), "_frame": int64(p.Ref.Frame), "_source": p.Ref.Source} {
				if got, ok := r.Get(f); !ok || got != v {
					t.Fatalf("%s: row %d Get(%q) = %v, %v; its patch holds %v", c.name, i, f, got, ok, v)
				}
			}
		}
	}
}
