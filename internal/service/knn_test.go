package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// kNN serving tests: request validation and fingerprint semantics, the
// N=1 golden contract against the unsharded path, shard invariance,
// every request form's answer at N=3 equal to the brute scan, and the
// append-vs-knn race hammer.

// knnQ returns a query vector sitting at synthPatch cluster c's center,
// nudged off-grid so the query is near, not on, a stored point.
func knnQ(c int) []float32 {
	q := make([]float32, 8)
	for d := range q {
		q[d] = float32(c*10) + 0.01
	}
	return q
}

func TestKNNValidation(t *testing.T) {
	_, svc := synthUnsharded(t, 50, Config{Workers: 1})
	ctx := context.Background()
	str := func(s string) *string { return &s }
	for name, req := range map[string]Request{
		"no field":        {Collection: shardTestCol, KNN: &KNNSpec{K: 3, Query: knnQ(1)}},
		"k zero":          {Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 0, Query: knnQ(1)}},
		"k over cap":      {Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 101, Query: knnQ(1)}},
		"no query source": {Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 3}},
		"both query and source": {Collection: shardTestCol,
			KNN: &KNNSpec{Field: "emb", K: 3, Query: knnQ(1), SourceID: 1}},
		"bad metric": {Collection: shardTestCol,
			KNN: &KNNSpec{Field: "emb", K: 3, Query: knnQ(1), Metric: "cosine"}},
		"recall floor over one": {Collection: shardTestCol,
			KNN: &KNNSpec{Field: "emb", K: 3, Query: knnQ(1), RecallFloor: 1.5}},
		"nan component": {Collection: shardTestCol,
			KNN: &KNNSpec{Field: "emb", K: 3, Query: []float32{1, float32(math.NaN()), 0, 0, 0, 0, 0, 0}}},
		"inf component": {Collection: shardTestCol,
			KNN: &KNNSpec{Field: "emb", K: 3, Query: []float32{float32(math.Inf(1)), 0, 0, 0, 0, 0, 0, 0}}},
		"composed with filter": {Collection: shardTestCol,
			KNN:    &KNNSpec{Field: "emb", K: 3, Query: knnQ(1)},
			Filter: &FilterSpec{Field: "label", Str: str("car")}},
		"composed with simjoin": {Collection: shardTestCol,
			KNN:     &KNNSpec{Field: "emb", K: 3, Query: knnQ(1)},
			SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}},
		"composed with order": {Collection: shardTestCol,
			KNN: &KNNSpec{Field: "emb", K: 3, Query: knnQ(1)}, OrderBy: "score"},
		"composed with limit": {Collection: shardTestCol,
			KNN: &KNNSpec{Field: "emb", K: 3, Query: knnQ(1)}, Limit: 5},
		"composed with distinct": {Collection: shardTestCol,
			KNN: &KNNSpec{Field: "emb", K: 3, Query: knnQ(1)}, Distinct: true},
		"dim mismatch": {Collection: shardTestCol,
			KNN: &KNNSpec{Field: "emb", K: 3, Query: []float32{1, 2, 3}}},
		"non-vector field": {Collection: shardTestCol,
			KNN: &KNNSpec{Field: "score", K: 3, Query: knnQ(1)}},
	} {
		if _, err := svc.Query(ctx, req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The explicit metric name is the default spelled out, not an error.
	r, err := svc.Query(ctx, Request{Collection: shardTestCol,
		KNN: &KNNSpec{Field: "emb", K: 3, Query: knnQ(1), Metric: "l2"}})
	if err != nil {
		t.Fatalf("explicit l2 metric rejected: %v", err)
	}
	if r.Value != 3 {
		t.Fatalf("knn value %d, want 3", r.Value)
	}
}

func TestKNNFingerprintSemantics(t *testing.T) {
	mk := func(mut func(*KNNSpec)) Request {
		spec := &KNNSpec{Field: "emb", K: 5, Query: knnQ(2)}
		mut(spec)
		return Request{Collection: "c", KNN: spec}
	}
	base := mk(func(*KNNSpec) {})
	distinct := map[string]Request{
		"k":      mk(func(s *KNNSpec) { s.K = 6 }),
		"query":  mk(func(s *KNNSpec) { s.Query = knnQ(3) }),
		"field":  mk(func(s *KNNSpec) { s.Field = "emb2" }),
		"source": mk(func(s *KNNSpec) { s.Query = nil; s.SourceID = 7 }),
	}
	for name, req := range distinct {
		if base.fingerprint(3, 42) == req.fingerprint(3, 42) {
			t.Errorf("%s variant collides with the base fingerprint", name)
		}
	}
	// The explicit default metric, the execution-only knob and the
	// accuracy bounds every answer meets must not fragment the cache key.
	for name, req := range map[string]Request{
		"metric l2": mk(func(s *KNNSpec) { s.Metric = "l2" }),
		"use_index": mk(func(s *KNNSpec) { s.UseIndex = true }),
		"exact":     mk(func(s *KNNSpec) { s.Exact = true }),
		"recall":    mk(func(s *KNNSpec) { s.RecallFloor = 0.5 }),
	} {
		if base.fingerprint(3, 42) != req.fingerprint(3, 42) {
			t.Errorf("%s fragments the fingerprint", name)
		}
	}
}

// knnMatrix is the request matrix the golden and invariance tests
// share: planner-chosen, pinned-exact, forced-index, recall-floored and
// source-patch forms.
func knnMatrix() []Request {
	return []Request{
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 5, Query: knnQ(3)}},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 8, Query: knnQ(1), Exact: true}},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 4, Query: knnQ(5), UseIndex: true}},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 6, Query: knnQ(0), RecallFloor: 0.99}},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 3, SourceID: 1}},
	}
}

// TestKNNGoldenN1: at fan-out 1 both constructors reproduce the frozen
// kNN matrix — values, rows (including _dist), plan strings,
// fingerprints and cost estimates.
func TestKNNGoldenN1(t *testing.T) {
	checkGoldenMatrix(t, "knn", knnMatrix())
}

// TestKNNShardInvariance: kNN answers — values AND rows — are
// shard-count invariant across the whole matrix: every fragment reports
// its shard's exact top-k, so the per-shard local top-k merges to
// exactly the unsharded answer.
func TestKNNShardInvariance(t *testing.T) {
	const rows = 240
	cfg := Config{Workers: 2}
	_, plain := synthUnsharded(t, rows, cfg)
	ctx := context.Background()
	want := make([]*Response, 0, len(knnMatrix()))
	for qi, req := range knnMatrix() {
		r, err := plain.Query(ctx, req)
		if err != nil {
			t.Fatalf("knn %d unsharded: %v", qi, err)
		}
		want = append(want, r)
	}
	_, sharded := synthSharded(t, 3, rows, cfg)
	for qi, req := range knnMatrix() {
		r, err := sharded.Query(ctx, req)
		if err != nil {
			t.Fatalf("knn %d sharded N=3: %v", qi, err)
		}
		if r.Value != want[qi].Value {
			t.Errorf("knn %d: N=3 value %d, unsharded %d", qi, r.Value, want[qi].Value)
		}
		if got, ref := refRows(r.Rows), refRows(want[qi].Rows); !reflect.DeepEqual(got, ref) {
			t.Errorf("knn %d: N=3 rows diverge from unsharded\n  N=3: %v\n  N=1: %v", qi, got, ref)
		}
	}
}

// TestKNNRowsShape: neighbor rows carry the projection plus _dist,
// ascending, trimmed to k, and a source-id query never returns its own
// source.
func TestKNNRowsShape(t *testing.T) {
	_, svc := synthUnsharded(t, 200, Config{Workers: 2})
	ctx := context.Background()
	r, err := svc.Query(ctx, Request{Collection: shardTestCol,
		KNN: &KNNSpec{Field: "emb", K: 10, Query: knnQ(2), Exact: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 10 || len(r.Rows) != 10 {
		t.Fatalf("value %d rows %d, want 10/10", r.Value, len(r.Rows))
	}
	prev := -1.0
	for i, row := range r.Rows {
		d, ok := rowField(row, "_dist").(float64)
		if !ok {
			t.Fatalf("row %d has no _dist: %v", i, refRows(r.Rows)[i])
		}
		if d < prev {
			t.Fatalf("rows not ascending by distance: %g after %g", d, prev)
		}
		prev = d
		if _, ok := row.Get("_id"); !ok {
			t.Fatalf("row %d lost its projection: %v", i, refRows(r.Rows)[i])
		}
	}
	// The query sits at cluster 2's center: every neighbor is a member.
	if prev > 1 {
		t.Fatalf("kth distance %g: neighbors escaped the query's cluster", prev)
	}

	// Source-id form: the source never appears among its own neighbors.
	first, err := svc.Query(ctx, Request{Collection: shardTestCol, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	srcID := rowField(first.Rows[0], "_id").(uint64)
	r, err = svc.Query(ctx, Request{Collection: shardTestCol,
		KNN: &KNNSpec{Field: "emb", K: 5, SourceID: srcID, Exact: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 5 {
		t.Fatalf("source knn value %d, want 5", r.Value)
	}
	for _, row := range r.Rows {
		if rowField(row, "_id").(uint64) == srcID {
			t.Fatal("source patch returned as its own neighbor")
		}
	}
}

// TestKNNEveryFormIsBrute: at N=3 a default request, a recall-floored
// one, a forced-index one and an exact one share one fingerprint and
// return byte-identical rows, and those rows are BruteKNN's answer over
// every shard's rows: no request form reaches an approximate path.
func TestKNNEveryFormIsBrute(t *testing.T) {
	const rows, k = 600, 10
	sdb, sharded := synthSharded(t, 3, rows, Config{Workers: 2})
	q := knnQ(4)
	forms := map[string]KNNSpec{
		"default":      {Field: "emb", K: k, Query: q},
		"recall_floor": {Field: "emb", K: k, Query: q, RecallFloor: 0.5},
		"use_index":    {Field: "emb", K: k, Query: q, UseIndex: true},
		"exact":        {Field: "emb", K: k, Query: q, Exact: true},
	}
	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	var all []*core.Patch
	for i := range sc.Shards() {
		snap, err := sc.Shard(i).Current()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, snap.Patches()...)
	}
	brute := core.BruteKNN(all, "emb", q, k)
	if len(brute) != k {
		t.Fatalf("brute answer holds %d of %d neighbors", len(brute), k)
	}
	var wantKey string
	var wantRows []byte
	plans := map[string]bool{}
	for name, spec := range forms {
		req := Request{Collection: shardTestCol, KNN: &spec}
		key, err := sharded.fingerprintFor(&req)
		if err != nil {
			t.Fatal(err)
		}
		req.NoCache = true // each form executes its own plan
		r := mustQuery(t, sharded, req)
		plans[r.Plan] = true
		if !strings.HasSuffix(r.Plan, "gather-knn") {
			t.Fatalf("%s: plan %q does not end in the gather-knn merge", name, r.Plan)
		}
		if len(r.Rows) != k {
			t.Fatalf("%s: %d rows, want %d", name, len(r.Rows), k)
		}
		for i, row := range r.Rows {
			id, d := core.PatchID(rowField(row, "_id").(uint64)), rowField(row, "_dist").(float64)
			if id != brute[i].ID || math.Float64bits(d) != math.Float64bits(brute[i].Dist) {
				t.Fatalf("%s: row %d is (%d, %v), BruteKNN (%d, %v)", name, i, id, d, brute[i].ID, brute[i].Dist)
			}
		}
		b, err := json.Marshal(r.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if wantRows == nil {
			wantKey, wantRows = key, b
			continue
		}
		if key != wantKey {
			t.Errorf("%s: fingerprint %s, another form's %s", name, key, wantKey)
		}
		if !bytes.Equal(b, wantRows) {
			t.Errorf("%s: rows\n  %s\nanother form's\n  %s", name, b, wantRows)
		}
	}
	// The default request scans and the forced one probes the tree: the
	// identity above spans both paths.
	if len(plans) < 2 {
		t.Fatalf("every form ran one plan %v: the comparison covers one path", plans)
	}
}

// TestKNNStatsAndMaintenanceCounters: cold kNN executions count,
// cache hits do not, and the index maintenance counters surface
// through Stats on both backends.
func TestKNNStatsAndMaintenanceCounters(t *testing.T) {
	db, svc := synthUnsharded(t, 120, Config{Workers: 1})
	ctx := context.Background()
	req := Request{Collection: shardTestCol,
		KNN: &KNNSpec{Field: "emb", K: 5, Query: knnQ(1), UseIndex: true}}
	if _, err := svc.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("identical knn request missed the result cache")
	}
	st := svc.Stats()
	if st.KNNQueries != 1 {
		t.Fatalf("knn_queries = %d after one cold + one cached, want 1", st.KNNQueries)
	}
	if st.IndexRebuilds < 1 {
		t.Fatalf("index_rebuilds = %d after an indexed probe", st.IndexRebuilds)
	}
	col, err := db.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Append(synthPatch(120)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	st2 := svc.Stats()
	if st2.IndexExtends != st.IndexExtends+1 {
		t.Fatalf("index_extends %d -> %d across a prefix-certified append, want +1",
			st.IndexExtends, st2.IndexExtends)
	}
	if st2.KNNQueries != 2 {
		t.Fatalf("knn_queries = %d after two cold executions, want 2", st2.KNNQueries)
	}
}

// TestKNNDistanceEvalsMetric: /metrics exports the distances kNN probes
// evaluate per method. A brute scan over the 120 synthetic rows, each
// carrying emb, adds exactly 120; an exact index probe adds at least
// one distance and is counted apart.
func TestKNNDistanceEvalsMetric(t *testing.T) {
	_, svc := synthUnsharded(t, 120, Config{Workers: 1})
	evals := func() (index, scan float64) {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		exp, err := obs.CheckExposition(rec.Body)
		if err != nil {
			t.Fatalf("/metrics is not valid exposition: %v", err)
		}
		index, ok1 := exp.Value("deeplens_knn_distance_evals_total", map[string]string{"method": "index"})
		scan, ok2 := exp.Value("deeplens_knn_distance_evals_total", map[string]string{"method": "scan"})
		if !ok1 || !ok2 {
			t.Fatal("deeplens_knn_distance_evals_total{method=index|scan} is missing")
		}
		return index, scan
	}
	if index, scan := evals(); index != 0 || scan != 0 {
		t.Fatalf("evaluations before any probe: index %v, scan %v", index, scan)
	}
	ctx := context.Background()
	scanReq := Request{Collection: shardTestCol, NoCache: true,
		KNN: &KNNSpec{Field: "emb", K: 5, Query: knnQ(1), Exact: true}}
	if resp, err := svc.Query(ctx, scanReq); err != nil || !strings.HasPrefix(resp.Plan, "knn-scan") {
		t.Fatalf("brute probe: plan %q, err %v", resp.Plan, err)
	}
	if index, scan := evals(); index != 0 || scan != 120 {
		t.Fatalf("after a brute probe: index %v, scan %v; want 0, 120", index, scan)
	}
	indexReq := scanReq
	indexReq.KNN = &KNNSpec{Field: "emb", K: 5, Query: knnQ(1), Exact: true, UseIndex: true}
	if resp, err := svc.Query(ctx, indexReq); err != nil || !strings.HasPrefix(resp.Plan, "knn-index[exact]") {
		t.Fatalf("index probe: plan %q, err %v", resp.Plan, err)
	}
	if index, scan := evals(); index < 1 || scan != 120 {
		t.Fatalf("after an index probe: index %v, scan %v; want >= 1, 120", index, scan)
	}
}

// TestKNNConcurrentAppendsHammer: kNN scatters race appends across
// every shard; under -race this is the memory-model check for the
// versioned index cache feeding parallel fragments.
func TestKNNConcurrentAppendsHammer(t *testing.T) {
	sdb, svc := synthSharded(t, 3, 60, Config{Workers: 4})
	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const appends = 120
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := sc.Append(synthPatch(60 + i)); err != nil {
				panic(fmt.Sprintf("append during knn scatter: %v", err))
			}
		}
	}()
	reqs := []Request{
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 5, Query: knnQ(1)}, NoCache: true},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 8, Query: knnQ(3), Exact: true}, NoCache: true},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 4, Query: knnQ(6), UseIndex: true}, NoCache: true},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 6, Query: knnQ(2), RecallFloor: 0.5}, NoCache: true},
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := reqs[(c+i)%len(reqs)]
				r, err := svc.Query(ctx, req)
				if err != nil {
					panic(fmt.Sprintf("knn during appends: %v", err))
				}
				if r.Value > req.KNN.K {
					panic(fmt.Sprintf("knn returned %d rows for k=%d", r.Value, req.KNN.K))
				}
			}
		}(c)
	}
	wg.Wait()
	// Quiesced: every index path answers over the full row set.
	r := mustQuery(t, svc, Request{Collection: shardTestCol,
		KNN: &KNNSpec{Field: "emb", K: 10, Query: knnQ(0), UseIndex: true}, NoCache: true})
	if r.Value != 10 {
		t.Fatalf("post-hammer knn value = %d, want 10", r.Value)
	}
}
