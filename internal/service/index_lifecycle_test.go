package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Scalar indexes at the serving layer: a use_index filter probes the
// sort orders of the replica's sealed column segments, which core sorts
// on first touch and carries along as the columns extend — the service
// holds no index state of its own.

// synthCount is the reference answer over synthetic rows [0, rows).
func synthCount(rows int, match func(*core.Patch) bool) int {
	n := 0
	for i := 0; i < rows; i++ {
		if match(synthPatch(i)) {
			n++
		}
	}
	return n
}

// metaVal is p's value under name, the zero Value when p lacks it.
func metaVal(p *core.Patch, name string) core.Value {
	v, _ := p.Get(name)
	return v
}

func isCar(p *core.Patch) bool { return metaVal(p, "label").Str() == "car" }

func rankIn14(p *core.Patch) bool { r := metaVal(p, "rank").Int(); return r >= 1 && r < 4 }

func indexedCarReq() Request {
	return Request{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: strp("car"), UseIndex: true}}
}

func indexedRankReq() Request {
	return Request{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Min: fp(1), Max: fp(4), UseIndex: true}}
}

// TestScalarIndexExtendsPerAppendRound is the acceptance scenario: over
// rounds of (append 64 rows, one equality and one range use_index
// query), the indexes follow the appends with the columns — each
// fragment span reports the probe's blocks and rows scanned, no more
// than its hits and the unsealed tail — and the one segment that seals
// is sorted once per probed field on the replica that serves the read.
// At R=2 the primary is stalled so the hedge to replica 1 answers every
// fragment: replica 1 keeps its own columns, the primary never builds
// any. The column store and vector index a column scan and a kNN probe
// use each round live on that replica too, and /stats counts their
// maintenance there.
func TestScalarIndexExtendsPerAppendRound(t *testing.T) {
	const base, rounds, batch = 900, 6, 64
	for _, tc := range []struct {
		name    string
		service func(t *testing.T) (*Service, *core.DB, []*core.DB)
	}{
		{"R=1", func(t *testing.T) (*Service, *core.DB, []*core.DB) {
			db, svc := synthUnsharded(t, base, Config{Workers: 2})
			return svc, db, nil
		}},
		{"R=2", func(t *testing.T) (*Service, *core.DB, []*core.DB) {
			sdb, svc := synthReplicated(t, 1, 2, base, Config{Workers: 2, HedgeAfter: time.Millisecond,
				Faults: fault.Config{Seed: 3, Rules: []fault.Rule{
					{Point: fault.FragmentStall, Shard: fault.Any, Replica: 0, Prob: 1, Stall: 5 * time.Second},
				}}})
			return svc, sdb.ReplicaDB(0, 1), []*core.DB{sdb.ReplicaDB(0, 0)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, reader, idle := tc.service(t)
			probe := func(rows int) {
				t.Helper()
				for _, q := range []struct {
					req   Request
					match func(*core.Patch) bool
				}{{indexedCarReq(), isCar}, {indexedRankReq(), rankIn14}} {
					q.req.NoCache, q.req.Trace = true, true
					r := mustQuery(t, svc, q.req)
					if want := synthCount(rows, q.match); r.Value != want {
						t.Fatalf("%s at %d rows: %d, want %d", r.Plan, rows, r.Value, want)
					}
					frags := spansByName(r.TraceData)["fragment"]
					if len(frags) != 1 {
						t.Fatalf("%s at %d rows: %d fragment spans", r.Plan, rows, len(frags))
					}
					a, tail := frags[0].Attrs, rows%core.ColumnBlockSize
					scanned, _ := strconv.Atoi(a["rows_scanned"])
					if a["blocks"] != strconv.Itoa((rows+core.ColumnBlockSize-1)/core.ColumnBlockSize) || scanned > r.Value+tail || a["columns"] == "" {
						t.Fatalf("%s at %d rows: fragment span %v, want every block and at most %d hits + %d tail rows scanned", r.Plan, rows, a, r.Value, tail)
					}
				}
			}
			scanAndKNN := func() {
				t.Helper()
				mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true, Filter: &FilterSpec{Field: "label", Str: strp("car")}})
				mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true, KNN: &KNNSpec{Field: "emb", K: 5, Query: knnQ(1), UseIndex: true}})
			}
			probe(base)
			probe(base)
			scanAndKNN()
			for round := 1; round <= rounds; round++ {
				appendSynth(t, svc, base+(round-1)*batch, base+round*batch, batch)
				probe(base + round*batch)
				scanAndKNN()
			}
			rs := reader.RefreshStats()
			if rs.ScalarSorted != 2 {
				t.Fatalf("serving replica sorted %d segments, want the one sealed segment of label and of rank", rs.ScalarSorted)
			}
			for _, db := range idle {
				if is := db.RefreshStats(); is != (core.RefreshStats{}) {
					t.Fatalf("replica that served no read maintained columns or an index: %+v", is)
				}
			}
			st := svc.Stats()
			if rs.ColumnExtends == 0 || rs.VectorExtends == 0 || st.ColumnExtends != rs.ColumnExtends ||
				st.IndexExtends != rs.VectorExtends || st.IndexRebuilds != rs.VectorRebuilds {
				t.Fatalf("stats column_extends/index_extends/index_rebuilds = %d/%d/%d, serving replica %d/%d/%d",
					st.ColumnExtends, st.IndexExtends, st.IndexRebuilds, rs.ColumnExtends, rs.VectorExtends, rs.VectorRebuilds)
			}

			// The same counts, summed over replicas, are the /metrics contract.
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			exp, err := obs.CheckExposition(rec.Body)
			if err != nil {
				t.Fatalf("/metrics is not valid exposition: %v", err)
			}
			if v, ok := exp.Value("deeplens_scalar_index_segments_sorted_total", nil); !ok || v != 2 {
				t.Fatalf("deeplens_scalar_index_segments_sorted_total = %v (found=%v), want 2", v, ok)
			}
			if v, _ := exp.Value("deeplens_queries_failed_total", nil); v != 0 {
				t.Fatalf("deeplens_queries_failed_total = %v", v)
			}
		})
	}
}

// TestAppendIndexedQueryHammer races streaming appends against cacheable
// use_index queries. A response that names a fingerprint must be exactly
// the scan answer at the version that fingerprint encodes — whether it
// was executed or served from the result cache, so the cache can never
// hold rows newer (or older) than its key — and one that names none
// (its execution raced an append) must still be a complete snapshot
// between the versions the reader saw around it.
func TestAppendIndexedQueryHammer(t *testing.T) {
	const base, extra, batch = 600, 960, 32
	db, svc := synthUnsharded(t, base, Config{Workers: 4, QueueDepth: 128})
	ctx := context.Background()
	col, err := db.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	// One collection in the DB: every appended batch commits whole and
	// advances the version by exactly one, so a version names a row count.
	v0 := col.Version()
	rowsAt := func(v uint64) int { return base + batch*int(v-v0) }

	type shape struct {
		req   Request
		match func(*core.Patch) bool
		want  []int          // answer by row count
		rows  map[string]int // fingerprint -> row count
	}
	shapes := []*shape{{req: indexedCarReq(), match: isCar}, {req: indexedRankReq(), match: rankIn14}}
	for _, sh := range shapes {
		sh.want = make([]int, base+extra+1)
		for n := 1; n <= base+extra; n++ {
			sh.want[n] = sh.want[n-1]
			if sh.match(synthPatch(n - 1)) {
				sh.want[n]++
			}
		}
		sh.rows = make(map[string]int, extra+1)
		req := sh.req
		if err := req.validate(); err != nil {
			t.Fatal(err)
		}
		for v := v0; v <= v0+extra/batch; v++ {
			sh.rows[req.fingerprint(v, svc.cfg.ModelSeed)] = rowsAt(v)
		}
		mustQuery(t, svc, sh.req) // first touch: the hammer exercises appends past it
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := base; i < base+extra; i += batch {
			req := AppendRequest{Collection: shardTestCol}
			for j := i; j < i+batch; j++ {
				req.Patches = append(req.Patches, specFromPatch(synthPatch(j)))
			}
			if _, err := svc.Append(ctx, req); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var pinned, hits, raced int64
	var mu sync.Mutex
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				sh := shapes[(w+i)%len(shapes)]
				before := rowsAt(col.Version())
				r, err := svc.Query(ctx, sh.req)
				after := rowsAt(col.Version())
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if r.Fingerprint == "" {
					raced++
				} else {
					pinned++
					if r.CacheHit {
						hits++
					}
				}
				mu.Unlock()
				if r.Fingerprint == "" {
					if r.Value < sh.want[before] || r.Value > sh.want[after] {
						t.Errorf("raced %s: %d outside [%d, %d]", r.Plan, r.Value, sh.want[before], sh.want[after])
					}
					continue
				}
				rows, ok := sh.rows[r.Fingerprint]
				if !ok {
					t.Errorf("%s: fingerprint %s matches no version of the stream", r.Plan, r.Fingerprint)
					return
				}
				if r.Value != sh.want[rows] {
					t.Errorf("%s (cache_hit=%v) fingerprinted at %d rows: %d, scan answer %d",
						r.Plan, r.CacheHit, rows, r.Value, sh.want[rows])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("responses: %d pinned (%d cache hits), %d raced an append", pinned, hits, raced)

	for _, sh := range shapes {
		if r := mustQuery(t, svc, sh.req); r.Value != sh.want[base+extra] {
			t.Fatalf("post-hammer %s: %d, want %d", r.Plan, r.Value, sh.want[base+extra])
		}
	}
	// The one segment that sealed, of label and of rank, is sorted at
	// least once; more only where racing extends projected it twice.
	if rs := db.RefreshStats(); rs.ScalarSorted < 2 || rs.ScalarSorted > 2*extra/batch {
		t.Fatalf("hammer: %d segments sorted, want 2 to %d", rs.ScalarSorted, 2*extra/batch)
	}
}

// TestIndexProbeKeepsWhatScanKeeps: a use_index filter keeps exactly what
// the column scan keeps for every shape that keeps rows — order_by +
// limit ascending and descending over tied values (also ordering by the
// filtered field), a bare limit, and a count — over equality and range
// filters, at one shard and at three. Each shard holds rows past one
// column segment, so the probe's rows fold segment by segment.
func TestIndexProbeKeepsWhatScanKeeps(t *testing.T) {
	const rows = 3300
	filters := []FilterSpec{
		{Field: "label", Str: strp("car")},
		{Field: "rank", Int: ip(3)},
		{Field: "score", Float: fp(2)},
		{Field: "score", Min: fp(1), Max: fp(3)},
		{Field: "rank", Min: fp(1.5), Max: fp(4.5)},
		{Field: "rank", Min: fp(2)},
	}
	shapes := []Request{
		{OrderBy: "score", Limit: 7},
		{OrderBy: "rank", Desc: true, Limit: 9},
		{OrderBy: "label", Desc: true, Limit: 1100},
		{OrderBy: "rank", Limit: 5},
		{Limit: 6},
		{},
	}
	for _, n := range []int{1, 3} {
		_, svc := synthSharded(t, n, rows, Config{Workers: 2})
		for _, f := range filters {
			for _, shape := range shapes {
				var got [2]*Response
				var body [2][]byte
				for i, useIndex := range []bool{false, true} {
					req, filter := shape, f
					filter.UseIndex = useIndex
					req.Collection, req.Filter, req.NoCache = shardTestCol, &filter, true
					got[i] = mustQuery(t, svc, req)
					b, err := json.Marshal(got[i].Rows)
					if err != nil {
						t.Fatal(err)
					}
					body[i] = b
				}
				if got[0].Value != got[1].Value || !bytes.Equal(body[0], body[1]) {
					t.Fatalf("N=%d filter %+v order_by=%q desc=%v limit=%d: use_index answers %d (%d rows, plan %q), the scan %d (%d rows, plan %q)",
						n, f, shape.OrderBy, shape.Desc, shape.Limit, got[1].Value, len(got[1].Rows), got[1].Plan, got[0].Value, len(got[0].Rows), got[0].Plan)
				}
				if !strings.Contains(got[1].Plan, "-index(") {
					t.Fatalf("N=%d filter %+v: use_index plan %q names no index probe", n, f, got[1].Plan)
				}
				if shape.Limit > 0 && len(got[0].Rows) == 0 && got[0].Value > 0 {
					t.Fatalf("N=%d filter %+v limit %d: %d matches but no rows kept", n, f, shape.Limit, got[0].Value)
				}
			}
		}
	}
}
