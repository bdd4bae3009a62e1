package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// Live-ingest tests: the streaming append path end to end — spec
// conversion, storage routing, cache invalidation, the incremental
// columnar extension it triggers on the next query, and the sharded
// invariance contracts.

// specFromPatch converts a synthetic patch into the JSON-shaped spec a
// client would POST.
func specFromPatch(p *core.Patch) PatchSpec {
	meta := map[string]any{}
	for k, v := range p.Range {
		switch v.Kind {
		case core.KindInt:
			meta[k] = float64(v.Int())
		case core.KindFloat:
			meta[k] = v.Float()
		case core.KindStr:
			meta[k] = v.Str()
		case core.KindVec, core.KindRect:
			vec := make([]any, len(v.Vec()))
			for i, f := range v.Vec() {
				vec[i] = float64(f)
			}
			meta[k] = vec
		}
	}
	return PatchSpec{Source: p.Ref.Source, Frame: p.Ref.Frame, Meta: meta}
}

// appendSynth streams rows [from, to) through Service.Append in
// frame-sized batches.
func appendSynth(t *testing.T, svc *Service, from, to, batch int) {
	t.Helper()
	for i := from; i < to; i += batch {
		req := AppendRequest{Collection: shardTestCol}
		for j := i; j < to && j < i+batch; j++ {
			req.Patches = append(req.Patches, specFromPatch(synthPatch(j)))
		}
		resp, err := svc.Append(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Appended != len(req.Patches) || len(resp.IDs) != resp.Appended {
			t.Fatalf("append committed %d of %d", resp.Appended, len(req.Patches))
		}
	}
}

// TestAppendThenQueryExtends is the acceptance scenario: after a warm
// columnar query, appending one block's worth of rows must leave the
// next query extending the store in place — sealed blocks reused, the
// result byte-identical to a fresh build — with the counters visible in
// Stats.
func TestAppendThenQueryExtends(t *testing.T) {
	base := 2*core.ColumnBlockSize + 400
	db, svc := synthUnsharded(t, base, Config{Workers: 2})
	ctx := context.Background()
	str := func(s string) *string { return &s }
	filter := Request{Collection: shardTestCol,
		Filter: &FilterSpec{Field: "label", Str: str("car")}, NoCache: true}
	topk := Request{Collection: shardTestCol, OrderBy: "score", Limit: 5, NoCache: true}

	// Warm the columnar store (projects label and score).
	if _, err := svc.Query(ctx, filter); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query(ctx, topk); err != nil {
		t.Fatal(err)
	}

	appendSynth(t, svc, base, base+core.ColumnBlockSize, 64)
	st := svc.Stats()
	if st.Appends != (core.ColumnBlockSize+63)/64 || st.AppendedRows != int64(core.ColumnBlockSize) {
		t.Fatalf("append counters %d/%d", st.Appends, st.AppendedRows)
	}

	r, err := svc.Query(ctx, filter)
	if err != nil {
		t.Fatal(err)
	}
	want := (base + core.ColumnBlockSize + 2) / 3 // labels cycle car/ped/bus
	if r.Value != want {
		t.Fatalf("post-append car count %d, want %d", r.Value, want)
	}
	st = svc.Stats()
	if st.ColumnExtends < 1 {
		t.Fatal("query after appends rebuilt the store instead of extending")
	}
	if st.ExtendTotalBlocks == 0 ||
		float64(st.ExtendReuseBlocks)/float64(st.ExtendTotalBlocks) < 2.0/3.0 {
		t.Fatalf("sealed-block reuse %d/%d below the 2-sealed-of-3 floor",
			st.ExtendReuseBlocks, st.ExtendTotalBlocks)
	}

	// The extended store answers as the rows of its snapshot do.
	col, err := db.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := col.Current()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"label", "score"} {
		se, _, _ := cs.FilterEqStats(field, core.StrV("car"))
		sr, err := snap.Select(ctx, core.Pred{Field: field, V: core.StrV("car")}, core.FilterScan, core.Keep{})
		if err != nil || !reflect.DeepEqual(se, sr.Sel) {
			t.Fatalf("extended %s selection diverges from the row scan (%v)", field, err)
		}
		rows := make([]int32, snap.Len())
		for i := range rows {
			rows[i] = int32(i)
		}
		sort.SliceStable(rows, func(a, b int) bool {
			return core.CompareBy(snap.Row(int(rows[a])), snap.Row(int(rows[b])), field, false) < 0
		})
		if te, _ := cs.TopK(nil, field, false, 20); !reflect.DeepEqual(te, rows[:20]) {
			t.Fatalf("extended %s top-k diverges from the stable sort of the rows", field)
		}
	}
}

// TestAppendInvalidatesResultCache: an append must drop the cached
// results of exactly its collection (precise prefix invalidation) and
// the next query must re-execute at the new version.
func TestAppendInvalidatesResultCache(t *testing.T) {
	_, svc := synthUnsharded(t, 120, Config{Workers: 1})
	req := Request{Collection: shardTestCol}
	r1 := mustQuery(t, svc, req)
	if r2 := mustQuery(t, svc, req); !r2.CacheHit {
		t.Fatal("warm query missed")
	}
	if svc.Stats().ResultCache.Entries == 0 {
		t.Fatal("nothing cached")
	}
	appendSynth(t, svc, 120, 121, 1)
	if svc.Stats().ResultCache.Entries != 0 {
		t.Fatal("append left the collection's cached results resident")
	}
	r3 := mustQuery(t, svc, req)
	if r3.CacheHit || r3.Value != 121 || r3.Fingerprint == r1.Fingerprint {
		t.Fatalf("post-append query stale: hit=%v value=%d", r3.CacheHit, r3.Value)
	}
}

// TestAppendHTTP drives the /append endpoint over the wire: single and
// batched bodies, error mapping, and the /stats ingest counters.
func TestAppendHTTP(t *testing.T) {
	_, svc := synthUnsharded(t, 30, Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	post := func(t *testing.T, path string, body any) (*http.Response, map[string]any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	// Single-patch form.
	resp, out := post(t, "/append", AppendRequest{
		Collection: shardTestCol, Patch: ptr(specFromPatch(synthPatch(30)))})
	if resp.StatusCode != http.StatusOK || out["appended"].(float64) != 1 {
		t.Fatalf("single append: %d %v", resp.StatusCode, out)
	}
	// Batched frame-at-a-time form.
	batch := AppendRequest{Collection: shardTestCol}
	for i := 31; i < 41; i++ {
		batch.Patches = append(batch.Patches, specFromPatch(synthPatch(i)))
	}
	resp, out = post(t, "/append", batch)
	if resp.StatusCode != http.StatusOK || out["appended"].(float64) != 10 {
		t.Fatalf("batch append: %d %v", resp.StatusCode, out)
	}
	if ids := out["ids"].([]any); len(ids) != 10 {
		t.Fatalf("batch ids %d", len(ids))
	}

	// The appended rows serve immediately.
	resp, out = post(t, "/query", Request{Collection: shardTestCol})
	if resp.StatusCode != http.StatusOK || out["value"].(float64) != 41 {
		t.Fatalf("post-append query: %d %v", resp.StatusCode, out)
	}

	// Error mapping: unknown collection 404, schema violation 400,
	// malformed body 400, missing patches 400.
	resp, _ = post(t, "/append", AppendRequest{Collection: "nope",
		Patch: ptr(specFromPatch(synthPatch(0)))})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown collection -> %d", resp.StatusCode)
	}
	bad := specFromPatch(synthPatch(0))
	bad.Meta["label"] = 3.5 // declared str
	resp, _ = post(t, "/append", AppendRequest{Collection: shardTestCol, Patch: &bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("schema violation -> %d", resp.StatusCode)
	}
	resp, _ = post(t, "/append", AppendRequest{Collection: shardTestCol})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty append -> %d", resp.StatusCode)
	}
	httpResp, err := http.Post(srv.URL+"/append", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body -> %d", httpResp.StatusCode)
	}

	// Stats surface the ingest counters.
	statsResp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["appends"].(float64) != 2 || st["appended_rows"].(float64) != 11 {
		t.Fatalf("stats appends %v rows %v", st["appends"], st["appended_rows"])
	}
}

func ptr[T any](v T) *T { return &v }

// TestAppendShardedN1Golden: the full query matrix stays byte-identical
// between unsharded and one-shard services after both ingest the same
// live stream through Append.
func TestAppendShardedN1Golden(t *testing.T) {
	const base, extra = 150, 90
	cfg := Config{Workers: 2}
	_, plain := synthUnsharded(t, base, cfg)
	_, sharded := synthSharded(t, 1, base, cfg)
	appendSynth(t, plain, base, base+extra, 16)
	appendSynth(t, sharded, base, base+extra, 16)
	ctx := context.Background()
	for qi, req := range queryMatrix() {
		pr, err := plain.Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d unsharded: %v", qi, err)
		}
		sr, err := sharded.Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d sharded N=1: %v", qi, err)
		}
		if pg, sg := goldenKey(t, pr), goldenKey(t, sr); pg != sg {
			t.Errorf("query %d diverges after live ingest:\n  unsharded: %s\n  sharded-1: %s", qi, pg, sg)
		}
	}
}

// TestAppendRoutedShardInvariance: a three-shard service fed the same
// append stream (hash-routed placement) answers every matrix query with
// the unsharded values, and its shards together hold exactly the
// appended rows.
func TestAppendRoutedShardInvariance(t *testing.T) {
	const base, extra = 150, 120
	cfg := Config{Workers: 2}
	_, plain := synthUnsharded(t, base, cfg)
	sdb, sharded := synthSharded(t, 3, base, cfg)
	appendSynth(t, plain, base, base+extra, 8)
	appendSynth(t, sharded, base, base+extra, 8)

	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != base+extra {
		t.Fatalf("sharded rows %d, want %d", sc.Len(), base+extra)
	}
	perShard := make([]int, 3)
	for i := 0; i < 3; i++ {
		perShard[i] = sc.Shard(i).Len()
	}
	sort.Ints(perShard)
	if perShard[0] == 0 {
		t.Fatalf("append routing starved a shard: %v", perShard)
	}

	ctx := context.Background()
	for qi, req := range queryMatrix() {
		pr, err := plain.Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d unsharded: %v", qi, err)
		}
		sr, err := sharded.Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d sharded N=3: %v", qi, err)
		}
		if pr.Value != sr.Value {
			t.Errorf("query %d: sharded value %d, unsharded %d (plan %s)", qi, sr.Value, pr.Value, sr.Plan)
		}
	}
}

// TestAppendQueryExtendHammer races streaming appends against columnar
// queries on an extension-warm store: under -race this is the torn-read
// check for Extend; semantically every observed count must correspond
// to a complete snapshot. The queries start once the first batch has
// committed, so the first of them always finds a stale store to extend.
func TestAppendQueryExtendHammer(t *testing.T) {
	base := core.ColumnBlockSize + 200
	extra := core.ColumnBlockSize
	_, svc := synthUnsharded(t, base, Config{Workers: 4, QueueDepth: 128})
	ctx := context.Background()
	str := func(s string) *string { return &s }
	reqs := []Request{
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("car")}, NoCache: true},
		{Collection: shardTestCol, OrderBy: "score", Desc: true, Limit: 7, NoCache: true},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Min: fp(1), Max: fp(4)}, NoCache: true},
	}
	// Warm the store so the hammer exercises Extend, not first builds.
	for _, req := range reqs {
		if _, err := svc.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	// Both sides run fixed quotas rather than until-the-other-finishes:
	// on a single-core scheduler a tight query loop can starve the
	// appender indefinitely (channel wakeups keep the ping-ponging pair
	// in the run queue's preferred slot), turning a coupled termination
	// condition into a livelock. Bounded loops interleave freely on
	// multicore and still terminate on one.
	var wg sync.WaitGroup
	var once sync.Once
	committed := make(chan struct{})
	release := func() { once.Do(func() { close(committed) }) }
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer release() // a failed first batch must not strand the queries
		for i := base; i < base+extra; i += 32 {
			req := AppendRequest{Collection: shardTestCol}
			for j := i; j < i+32 && j < base+extra; j++ {
				req.Patches = append(req.Patches, specFromPatch(synthPatch(j)))
			}
			if _, err := svc.Append(ctx, req); err != nil {
				t.Error(err)
				return
			}
			release()
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-committed
			for i := 0; i < 25; i++ {
				req := reqs[(w+i)%len(reqs)]
				r, err := svc.Query(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if req.Filter != nil && req.Filter.Str != nil {
					// Labels cycle with period 3: any complete snapshot's car
					// count lies within the stream's bounds.
					if r.Value < base/3 || r.Value > (base+extra)/3+1 {
						t.Errorf("torn columnar read: %d cars", r.Value)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	final := mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true})
	if final.Value != base+extra {
		t.Fatalf("post-hammer count %d, want %d", final.Value, base+extra)
	}
	if st := svc.Stats(); st.ColumnExtends == 0 {
		t.Error("hammer never exercised the extension path")
	}
}

// TestAppendPartialBatchRejectedAtomically: a batch with one malformed
// spec must commit nothing.
func TestAppendPartialBatchRejectedAtomically(t *testing.T) {
	_, svc := synthUnsharded(t, 40, Config{Workers: 1})
	req := AppendRequest{Collection: shardTestCol}
	for i := 40; i < 44; i++ {
		req.Patches = append(req.Patches, specFromPatch(synthPatch(i)))
	}
	req.Patches[2].Meta["score"] = "not-a-number" // declared float
	if _, err := svc.Append(context.Background(), req); err == nil {
		t.Fatal("malformed batch accepted")
	}
	if got := mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true}).Value; got != 40 {
		t.Fatalf("malformed batch partially committed: %d rows", got)
	}
	if st := svc.Stats(); st.Appends != 0 || st.AppendedRows != 0 {
		t.Fatalf("rejected batch counted: %d/%d", st.Appends, st.AppendedRows)
	}
}

// TestMetaValueCoercion pins the JSON-to-Value mapping, through both
// append adapters: the Go API's map[string]any values and the /append
// decoder's tokens of the body's bytes.
func TestMetaValueCoercion(t *testing.T) {
	schema := synthSchema().WithField(core.Field{Name: "box", Kind: core.KindRect})
	cases := []struct {
		field string
		json  string
		want  core.Value
		fail  bool
	}{
		{"label", `"car"`, core.StrV("car"), false},
		{"label", `"é😀"`, core.StrV("é😀"), false},
		{"score", `2.5`, core.FloatV(2.5), false},
		{"score", `-0`, core.FloatV(math.Copysign(0, -1)), false},
		{"rank", `3`, core.IntV(3), false},
		{"rank", `3.0`, core.IntV(3), false},
		{"rank", `-0`, core.IntV(0), false},
		{"rank", `9007199254740991`, core.IntV(1<<53 - 1), false},
		{"rank", `9007199254740993`, core.Value{}, true}, // 2^53+1 reads as 2^53: no longer exact
		{"rank", `3.5`, core.Value{}, true},              // fractional into declared int
		{"rank", `1e19`, core.Value{}, true},             // past MaxInt64: conversion would be garbage
		{"rank", `9.1e15`, core.Value{}, true},           // past 2^53: float64 no longer exact
		{"emb", `[1, 2]`, core.VecV([]float32{1, 2}), false},
		{"emb", `[]`, core.VecV([]float32{}), false},
		{"emb", `[0.1, 1e39]`, core.VecV([]float32{0.1, float32(math.Inf(1))}), false},
		{"box", `[1, 2, 3, 4]`, core.RectOf([]float32{1, 2, 3, 4}), false},
		{"box", `[1, 2, 3]`, core.Value{}, true},
		{"undeclared_int", `7`, core.IntV(7), false},
		{"undeclared_float", `7.25`, core.FloatV(7.25), false},
		{"undeclared_big", `1e300`, core.FloatV(1e300), false},
		{"label", `true`, core.Value{}, true},
		{"label", `null`, core.Value{}, true},
		{"label", `{"a": 1}`, core.Value{}, true},
		{"emb", `["x"]`, core.Value{}, true},
		{"emb", `[1, [2]]`, core.Value{}, true},
		{"emb", `[1, null]`, core.Value{}, true},
	}
	// valueBytes compares values bit for bit (-0 is not 0), and a nil
	// vector as the empty one.
	valueBytes := func(v core.Value) []byte {
		return (&core.Patch{Meta: core.Metadata{"v": v}}).Marshal()
	}
	for _, tc := range cases {
		var v any
		if err := json.Unmarshal([]byte(tc.json), &v); err != nil {
			t.Fatal(err)
		}
		fd := schema.FieldNamed(tc.field)
		for _, path := range []string{"any", "body"} {
			tok := anyTok(v)
			if path == "body" {
				tok = bodyTok(t, tc.field, tc.json)
			}
			got, err := metaValue(fd, tok)
			switch {
			case tc.fail && err == nil:
				t.Errorf("%s path, %s: %s accepted as %+v", path, tc.field, tc.json, got)
			case !tc.fail && err != nil:
				t.Errorf("%s path, %s: %s: %v", path, tc.field, tc.json, err)
			case !tc.fail && !bytes.Equal(valueBytes(got), valueBytes(tc.want)):
				t.Errorf("%s path, %s: %s -> %+v, want %+v", path, tc.field, tc.json, got, tc.want)
			}
		}
	}
}

// bodyTok decodes a one-member meta through the /append decoder and
// returns the member's token as patches hands it to metaValue.
func bodyTok(t *testing.T, field, value string) metaTok {
	t.Helper()
	d := appendDecoders.Get()
	defer d.release()
	body := `{"patch":{"meta":{` + strconv.Quote(field) + `:` + value + `}}}`
	if err := d.decode(strings.NewReader(body)); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	f := d.fields[0]
	if f.tok.kind == tokVec {
		f.tok.v = append([]float32{}, d.vals[f.from:f.to]...)
	}
	return f.tok
}
