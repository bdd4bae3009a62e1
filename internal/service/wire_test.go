package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// Wire-format tests: every successful /query body — a cached result's
// memoized head plus its appended tail, or a fresh head plus tail — is
// byte-identical to the indented encoding/json form of the Response.

// postQuery serves one /query request through the handler. It may run
// off the test goroutine.
func postQuery(t *testing.T, s *Service, req Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// encodeJSON is what writeJSON sends for v.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkWire decodes a 200 /query body strictly, rows as maps and numbers
// kept as written, and requires the body to equal the decoded value's
// encoding/json form.
func checkWire(t *testing.T, label string, code int, body []byte) *wireResponse {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("%s: HTTP %d: %s", label, code, body)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	var r wireResponse
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%s: %v in %s", label, err, body)
	}
	if want := encodeJSON(t, &r); !bytes.Equal(body, want) {
		t.Fatalf("%s: wire bytes differ from encoding/json\n got: %q\nwant: %q", label, body, want)
	}
	return &r
}

// asBuilders is rows over builder copies of their patches: the form the
// map-row reference projects, whose Meta holds every entry a committed
// row's Range yields.
func asBuilders(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		r.p = r.p.Builder()
		out[i] = r
	}
	return out
}

// checkWriter requires writeResponse to send, for a Response obtained
// through the Go API, exactly what writeJSON sends both for the Response
// itself (rows through Row.MarshalJSON) and for its map-row reference.
func checkWriter(t *testing.T, label string, r *Response) {
	t.Helper()
	got := httptest.NewRecorder()
	writeResponse(got, r, hitTail{})
	if want := encodeJSON(t, r); got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want) {
		t.Fatalf("%s: writeResponse sent %d %q, writeJSON sends %q", label, got.Code, got.Body.Bytes(), want)
	}
	ref := *r
	ref.Rows = asBuilders(r.Rows)
	if code, want := refBody(&ref); code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want) {
		t.Fatalf("%s: writeResponse sent %q, the map-row reference %d %q", label, got.Body.Bytes(), code, want)
	}
}

// coalescedBody returns the body a caller receives when it coalesces
// onto an identical in-flight execution. The service has one worker and
// stalls every scatter fragment: a no_cache blocker holds the worker,
// the leader queues behind it, and the waiter arrives while the
// leader's flight is open.
func coalescedBody(t *testing.T, s *Service, req Request) (int, []byte) {
	t.Helper()
	s.FlushCaches()
	key, err := s.fingerprintFor(&req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	done := make(chan struct{}, 2)
	stalls := s.inj.Fired(fault.FragmentStall)
	go func() {
		postQuery(t, s, Request{Collection: shardTestCol, NoCache: true})
		done <- struct{}{}
	}()
	waitFor("the blocker to stall on the worker", func() bool {
		return s.inj.Fired(fault.FragmentStall) > stalls
	})
	go func() {
		postQuery(t, s, req)
		done <- struct{}{}
	}()
	waitFor("the leader's flight", func() bool {
		s.flightMu.Lock()
		defer s.flightMu.Unlock()
		return s.inflight[key] != nil
	})
	before := s.Stats().Coalesced
	code, body := postQuery(t, s, req)
	<-done
	<-done
	if s.Stats().Coalesced != before+1 {
		t.Fatalf("waiter did not coalesce onto the leader (coalesced %d -> %d)", before, s.Stats().Coalesced)
	}
	return code, body
}

// TestQueryWireBytesMatchEncodingJSON: for every shape of the query
// matrix, the miss, hit, coalesced, no_cache and traced bodies — and a
// degraded one — are byte-identical to encoding/json's.
func TestQueryWireBytesMatchEncodingJSON(t *testing.T) {
	_, svc := synthSharded(t, 2, 240, Config{Workers: 2})
	_, stalled := synthSharded(t, 2, 240, Config{Workers: 1, Faults: fault.Config{Seed: 1, Rules: []fault.Rule{
		{Point: fault.FragmentStall, Shard: fault.Any, Replica: fault.Any, Prob: 1, Stall: 30 * time.Millisecond},
	}}})
	for qi, req := range queryMatrix() {
		label := func(mode string) string { return fmt.Sprintf("shape %d %s", qi, mode) }

		svc.FlushCaches()
		code, body := postQuery(t, svc, req)
		if r := checkWire(t, label("miss"), code, body); r.CacheHit {
			t.Fatalf("%s: cache_hit on a flushed cache", label("miss"))
		}
		code, body = postQuery(t, svc, req)
		if r := checkWire(t, label("hit"), code, body); !r.CacheHit {
			t.Fatalf("%s: cache_hit false on a repeat", label("hit"))
		}
		code, body = coalescedBody(t, stalled, req)
		if r := checkWire(t, label("coalesced"), code, body); !r.CacheHit {
			t.Fatalf("%s: a coalesced waiter is served as a hit", label("coalesced"))
		}

		nc := req
		nc.NoCache = true
		code, body = postQuery(t, svc, nc)
		checkWire(t, label("no_cache"), code, body)

		tr := req
		tr.Trace = true
		svc.FlushCaches()
		for _, mode := range []string{"traced miss", "traced hit"} {
			code, body = postQuery(t, svc, tr)
			if r := checkWire(t, label(mode), code, body); r.TraceID == "" || r.TraceData == nil {
				t.Fatalf("%s: no trace on the wire", label(mode))
			}
		}

		svc.FlushCaches()
		checkWriter(t, label("api miss"), mustQuery(t, svc, req))
		checkWriter(t, label("api hit"), mustQuery(t, svc, req))
		checkWriter(t, label("api no_cache"), mustQuery(t, svc, nc))
	}

	_, dead := synthReplicated(t, 2, 2, 80, Config{Workers: 2, Faults: deadShard(19, 0)})
	for _, req := range []Request{
		{Collection: shardTestCol, AllowPartial: true},
		{Collection: shardTestCol, OrderBy: "score", Limit: 5, AllowPartial: true},
	} {
		code, body := postQuery(t, dead, req)
		r := checkWire(t, "degraded", code, body)
		if !r.Degraded || len(r.MissingShards) != 1 || r.MissingShards[0] != 0 {
			t.Fatalf("degraded body = %s, want shard 0 missing", body)
		}
	}
}

// TestConcurrentHitsShareOneHead: hits racing on a result whose head is
// not built yet all send correct bodies, and the head is encoded and
// charged to the cache exactly once.
func TestConcurrentHitsShareOneHead(t *testing.T) {
	_, s := synthUnsharded(t, 120, Config{Workers: 2})
	req := Request{Collection: shardTestCol, OrderBy: "rank", Limit: 15}
	miss := mustQuery(t, s, req)
	before := s.results.Stats().Bytes

	const callers = 8
	type result struct {
		code int
		body []byte
	}
	results := make(chan result, callers)
	for i := 0; i < callers; i++ {
		go func() {
			code, body := postQuery(t, s, req)
			results <- result{code, body}
		}()
	}
	for i := 0; i < callers; i++ {
		r := <-results
		if hit := checkWire(t, "concurrent hit", r.code, r.body); !hit.CacheHit {
			t.Fatal("a concurrent repeat missed the cache")
		}
	}
	head, err := miss.wire.headFor(miss)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.results.Stats().Bytes, before+int64(len(head)); got != want {
		t.Fatalf("cache bytes = %d after %d racing hits, want %d (the head charged once)", got, callers, want)
	}
}

// FuzzAppendJSONFloat: appendJSONFloat writes json.Marshal's bytes for
// every float64, and refuses exactly what json.Marshal refuses.
func FuzzAppendJSONFloat(f *testing.F) {
	f.Fuzz(func(t *testing.T, x float64) {
		want, werr := json.Marshal(x)
		got, gerr := appendJSONFloat([]byte("prefix"), x)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%v: json.Marshal error %v, appendJSONFloat error %v", x, werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Fatalf("%v: error %q, want %q", x, gerr, werr)
			}
			return
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("%v: appended %q, json.Marshal gives %q", x, got, want)
		}
	})
}

// FuzzAppendJSONString: appendJSONString writes json.Marshal's bytes for
// every string, invalid UTF-8 included.
func FuzzAppendJSONString(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Fatalf("%q: appended %q, json.Marshal gives %q", s, got, want)
		}
	})
}

// fuzzKeys are metadata names sorting before, among and after the
// identity columns, colliding with them and with _dist, or needing
// escapes.
var fuzzKeys = []string{"", " ", "A", "Z", "^", "_", "_a", "_dist", "_frame", "_id", "_source", "_~",
	"`", "a", "label", "score", "é", "<&>", "\u2028", "\xff", "k\x00", "\"q\""}

// fuzzString draws a hostile string: the fuzzer's own, HTML and
// separator characters, control bytes, invalid UTF-8 or random bytes.
func fuzzString(r *rand.Rand, s string) string {
	switch r.Intn(8) {
	case 0:
		return s
	case 1:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return string(b)
	}
	return fuzzStrings[r.Intn(len(fuzzStrings))]
}

var fuzzStrings = []string{"", "car", "a -> b", "<b>&amp;</b>", "\u2028x\u2029", "\xff\xfe\xed\xa0\x80",
	"\x00\x01\x1f\b\f\n\r\t\"\\\x7f", "é日本\ufffd"}

// fuzzFloat draws a float: signed zeros, exponent-form boundaries,
// extremes, ordinary values, and rarely NaN or an infinity.
func fuzzFloat(r *rand.Rand) float64 {
	if r.Intn(48) == 0 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
	}
	switch r.Intn(3) {
	case 0:
		return []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 5e-324,
			math.MaxFloat64, -math.MaxFloat64, 0.1, 1 << 63}[r.Intn(12)]
	case 1:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	}
	return float64(r.Intn(100)) / 4
}

// fuzzValue draws a metadata value of any kind, the unsent ones (no
// kind, vec, rect) included.
func fuzzValue(r *rand.Rand, s string) core.Value {
	switch r.Intn(6) {
	case 0:
		return core.Value{}
	case 1:
		return core.IntV([]int64{0, -1, math.MaxInt64, math.MinInt64, 1<<53 + 1, r.Int63() - r.Int63()}[r.Intn(6)])
	case 2:
		return core.FloatV(fuzzFloat(r))
	case 3:
		return core.StrV(fuzzString(r, s))
	case 4:
		return core.VecV([]float32{float32(fuzzFloat(r)), 1})
	}
	return core.RectV(1, 2, 3, 4)
}

// fuzzResponse builds an uncached response over random patches.
func fuzzResponse(r *rand.Rand, n int, knn bool, s string) *Response {
	resp := &Response{Value: int(r.Int63() - r.Int63()), Rows: make([]Row, n),
		Plan: fuzzString(r, s), Fingerprint: fuzzString(r, s)}
	for i := range resp.Rows {
		p := &core.Patch{ID: core.PatchID(r.Uint64()), Ref: core.Ref{Source: fuzzString(r, s), Frame: r.Uint64()},
			Meta: core.Metadata{}}
		for j := r.Intn(8); j > 0; j-- {
			k := s
			if r.Intn(4) > 0 {
				k = fuzzKeys[r.Intn(len(fuzzKeys))]
			}
			p.Meta[k] = fuzzValue(r, s)
		}
		resp.Rows[i] = Row{p: p, knn: knn}
		if knn {
			resp.Rows[i].dist = fuzzFloat(r)
		}
	}
	return resp
}

// sameField compares a Get value with a reference map value, NaN equal
// to itself.
func sameField(got, want any) bool {
	if g, ok := got.(float64); ok {
		w, ok := want.(float64)
		return ok && math.Float64bits(g) == math.Float64bits(w)
	}
	return got == want
}

// FuzzRowWireMatchesEncodingJSON: over random patches, an uncached
// /query body is byte-identical to the map-row reference's — or both
// answer the same 500 — Row.MarshalJSON agrees with json.Marshal of the
// reference maps, and Get returns exactly the maps' fields and values.
func FuzzRowWireMatchesEncodingJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nrows uint8, knn bool, s string) {
		resp := fuzzResponse(rand.New(rand.NewSource(seed)), int(nrows%24), knn, s)
		got := httptest.NewRecorder()
		writeResponse(got, resp, hitTail{})
		code, want := refBody(resp)
		if got.Code != code || !bytes.Equal(got.Body.Bytes(), want) {
			t.Fatalf("writeResponse sent %d %q\nthe reference sends %d %q", got.Code, got.Body.Bytes(), code, want)
		}

		ref := refRows(resp.Rows)
		gb, gerr := json.Marshal(resp.Rows)
		wb, werr := json.Marshal(ref)
		if (gerr != nil) != (werr != nil) || gerr == nil && !bytes.Equal(gb, wb) {
			t.Fatalf("Row.MarshalJSON: %q (%v), the reference maps: %q (%v)", gb, gerr, wb, werr)
		}
		for i, row := range resp.Rows {
			for _, k := range append(fuzzKeys, s) {
				w, inRef := ref[i][k]
				g, ok := row.Get(k)
				if ok != inRef || ok && !sameField(g, w) {
					t.Fatalf("row %d Get(%q) = %#v, %v; the reference map holds %#v, %v", i, k, g, ok, w, inRef)
				}
			}
		}
	})
}

// sinkWriter is a reusable ResponseWriter for allocation counts.
type sinkWriter struct {
	hdr    http.Header
	status int
	body   []byte
}

func (s *sinkWriter) Header() http.Header  { return s.hdr }
func (s *sinkWriter) WriteHeader(code int) { s.status = code }
func (s *sinkWriter) Write(p []byte) (int, error) {
	s.body = append(s.body, p...)
	return len(p), nil
}

// maxCachedHitAllocs bounds a cached 20-row hit served through the
// handler. Re-encoding the rows on every hit, as the handler did before
// responses kept their encoded head, cost 331 allocations on the same
// request (go1.24, linux/amd64).
const maxCachedHitAllocs = 331 / 4

// TestCachedHitAllocs: a cache hit costs request decoding, the cache
// probe and the appended tail — not an encoding of its rows.
func TestCachedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s := obsFixture(t, 1, 240, Config{Workers: 1})
	body := []byte(`{"collection":"` + shardTestCol + `","filter":{"field":"label","str":"car"},"order_by":"rank","limit":20}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query", rd)
	w := &sinkWriter{hdr: http.Header{}}
	h := s.Handler()
	serve := func() {
		rd.Reset(body)
		w.status, w.body = 0, w.body[:0]
		h.ServeHTTP(w, req)
	}
	serve() // miss
	serve() // first hit: builds the head
	r := checkWire(t, "cached hit", w.status, w.body)
	if !r.CacheHit || len(r.Rows) != 20 {
		t.Fatalf("hit=%v rows=%d, want a cached 20-row hit", r.CacheHit, len(r.Rows))
	}
	if allocs := testing.AllocsPerRun(200, serve); allocs > maxCachedHitAllocs {
		t.Fatalf("cached hit: %.0f allocations per request, want <= %d", allocs, maxCachedHitAllocs)
	}
}

// TestUncachedResponseAllocsIndependentOfRows: a response without a
// stored head is encoded row by row into a pooled buffer, so sending 20
// rows allocates no more objects than sending one.
func TestUncachedResponseAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, s := synthUnsharded(t, 120, Config{Workers: 1})
	w := &sinkWriter{hdr: http.Header{}}
	allocs := func(limit int) float64 {
		r := mustQuery(t, s, Request{Collection: shardTestCol, OrderBy: "score", Limit: limit, NoCache: true})
		if r.wire != nil || len(r.Rows) != limit {
			t.Fatalf("want an uncached %d-row response, got %d rows (memo %v)", limit, len(r.Rows), r.wire != nil)
		}
		return testing.AllocsPerRun(200, func() {
			w.status, w.body = 0, w.body[:0]
			writeResponse(w, r, hitTail{})
		})
	}
	if one, twenty := allocs(1), allocs(20); twenty != one {
		t.Fatalf("uncached response: %.0f allocations for 1 row, %.0f for 20", one, twenty)
	}
}

// nanFixture is a service whose "car" rows include one scored NaN —
// metadata core accepts but JSON cannot carry.
func nanFixture(t *testing.T) *Service {
	t.Helper()
	db, s := synthUnsharded(t, 12, Config{Workers: 1, SlowQueryThreshold: time.Nanosecond})
	col, err := db.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	p := synthPatch(12)
	p.Meta["label"] = core.StrV("car")
	p.Meta["score"] = core.FloatV(math.NaN())
	if err := col.Append(p); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestUnencodableResponseIs500: a body that cannot be encoded goes out
// as 500 with an error body — never as a 200 with an empty or truncated
// body — on the memoized, fresh-head and writeJSON paths alike.
func TestUnencodableResponseIs500(t *testing.T) {
	s := nanFixture(t)
	car := "car"
	req := Request{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: &car}, Limit: 5}
	nc := req
	nc.NoCache = true
	for _, c := range []struct {
		mode string
		req  Request
	}{{"miss", req}, {"hit", req}, {"no_cache", nc}} {
		code, body := postQuery(t, s, c.req)
		var e httpError
		if err := json.Unmarshal(body, &e); err != nil || code != http.StatusInternalServerError ||
			!strings.Contains(e.Error, "unsupported value: NaN") {
			t.Fatalf("%s over a NaN row: HTTP %d %q, want 500 with the encoding error", c.mode, code, body)
		}
	}
	if st := s.Stats(); st.ResultCache.Hits != 1 {
		t.Fatalf("result cache hits = %d, want 1 (the failed head is not retried into the cache)", st.ResultCache.Hits)
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value: +Inf") {
		t.Fatalf("writeJSON of +Inf: HTTP %d %q, want 500", rec.Code, rec.Body.String())
	}
	for _, path := range []string{"/stats", "/debug/slow"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var v map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s after the NaN queries: HTTP %d, %v", path, rec.Code, err)
		}
	}
}

// TestResultCacheChargesEncodedHead: a budget that holds every result
// as Put no longer holds them once a head is encoded and charged, and
// the cache evicts down to it.
func TestResultCacheChargesEncodedHead(t *testing.T) {
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{Collection: shardTestCol, OrderBy: "score", Limit: 10 + i}
	}
	_, probe := synthUnsharded(t, 120, Config{Workers: 1})
	var budget int64
	for _, req := range reqs {
		budget += mustQuery(t, probe, req).sizeBytes()
	}

	_, s := synthUnsharded(t, 120, Config{Workers: 1, ResultCacheBytes: budget})
	for _, req := range reqs {
		mustQuery(t, s, req)
	}
	if st := s.results.Stats(); st.Entries != len(reqs) || st.Evictions != 0 || st.Bytes != budget {
		t.Fatalf("before encoding: %+v, want all %d results in exactly the budget", st, len(reqs))
	}
	code, body := postQuery(t, s, reqs[0]) // a hit: builds and charges the head
	if r := checkWire(t, "charged hit", code, body); !r.CacheHit {
		t.Fatal("the charged request was not a hit")
	}
	st := s.results.Stats()
	if st.Evictions == 0 || st.Entries >= len(reqs) || st.Bytes > st.CapBytes {
		t.Fatalf("after encoding: %+v, want evictions down to the %d-byte budget", st, budget)
	}
	if r := mustQuery(t, s, reqs[0]); !r.CacheHit {
		t.Fatal("the most recently used result was evicted for its own head")
	}
}
