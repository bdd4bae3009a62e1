package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
)

// Observability tests: per-query trace capture on the scattered path,
// the /metrics Prometheus surface, the /stats JSON contract, the
// slow-query log, and the traced-vs-untraced overhead bound.

// obsFixture builds a service over `rows` synthetic rows — sharded when
// shards > 1 — usable from both tests and benchmarks.
func obsFixture(tb testing.TB, shards, rows int, cfg Config) *Service {
	tb.Helper()
	if shards > 1 {
		sdb, err := core.OpenSharded(filepath.Join(tb.TempDir(), "sharded"), shards, exec.New(exec.CPU))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { sdb.Close() })
		sc, err := sdb.CreateCollection(shardTestCol, synthSchema())
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := sc.Append(synthPatch(i)); err != nil {
				tb.Fatal(err)
			}
		}
		s, err := NewSharded(sdb, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(s.Close)
		return s
	}
	db, err := core.Open(filepath.Join(tb.TempDir(), "plain.db"), exec.New(exec.CPU))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	col, err := db.CreateCollection(shardTestCol, synthSchema())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := col.Append(synthPatch(i)); err != nil {
			tb.Fatal(err)
		}
	}
	s, err := New(db, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}

func spansByName(data *obs.TraceData) map[string][]obs.Span {
	out := make(map[string][]obs.Span)
	for _, sp := range data.Spans {
		out[sp.Name] = append(out[sp.Name], sp)
	}
	return out
}

// TestTracedScatterSpans: a traced scattered top-k query must return a
// trace whose spans cover the whole request path — plan, queue wait,
// execution, one fragment per shard (carrying shard id and scan record),
// the k-way merge, and the cache store — and the named spans must cover
// nearly all of the measured wall time (best of 5 attempts, since a
// single run can be descheduled between spans).
func TestTracedScatterSpans(t *testing.T) {
	const nsh = 3
	s := obsFixture(t, nsh, 600, Config{Workers: 2})
	str := "car"

	best := 0.0
	var data *obs.TraceData
	for attempt := 0; attempt < 5; attempt++ {
		// A fresh limit each attempt keeps the fingerprint distinct, so
		// every traced run executes instead of hitting the result cache.
		resp, err := s.Query(context.Background(), Request{
			Collection: shardTestCol,
			Filter:     &FilterSpec{Field: "label", Str: &str},
			OrderBy:    "score", Limit: 5 + attempt,
			Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.TraceID == "" || resp.TraceData == nil {
			t.Fatalf("traced query returned no trace: id=%q data=%v", resp.TraceID, resp.TraceData)
		}
		d := resp.TraceData
		// plan/queue/execute/cache-store partition the request lifetime;
		// fragment and merge spans nest inside execute and must not be
		// double-counted.
		var covered float64
		for _, sp := range d.Spans {
			switch sp.Name {
			case "plan", "queue", "execute", "cache-store":
				covered += sp.DurUS
			}
		}
		if d.DurUS > 0 && covered/d.DurUS > best {
			best = covered / d.DurUS
			data = d
		}
	}
	if data == nil {
		t.Fatal("no trace captured")
	}
	byName := spansByName(data)
	for _, want := range []string{"plan", "queue", "execute", "fragment", "merge", "cache-store"} {
		if len(byName[want]) == 0 {
			t.Fatalf("trace is missing a %q span; got %v", want, data.Spans)
		}
	}
	if got := len(byName["fragment"]); got != nsh {
		t.Fatalf("fragment spans = %d, want one per shard (%d)", got, nsh)
	}
	shardsSeen := make(map[string]bool)
	for _, sp := range byName["fragment"] {
		if sp.Attrs["shard"] == "" {
			t.Fatalf("fragment span has no shard attr: %+v", sp)
		}
		shardsSeen[sp.Attrs["shard"]] = true
		if sp.Attrs["path"] == "" || sp.Attrs["rows"] == "" {
			t.Fatalf("fragment span is missing path/rows attrs: %+v", sp)
		}
	}
	if len(shardsSeen) != nsh {
		t.Fatalf("fragment spans cover shards %v, want %d distinct", shardsSeen, nsh)
	}
	if got := byName["plan"][0].Attrs["cache"]; got != "miss" {
		t.Fatalf("first execution's plan span says cache=%q, want miss", got)
	}
	if byName["execute"][0].Attrs["plan"] == "" {
		t.Fatal("execute span carries no plan label")
	}
	if best < 0.90 {
		t.Fatalf("named spans cover %.1f%% of traced wall time, want >= 90%%", 100*best)
	}
}

// TestTraceOnCachedResponse: tracing a cache hit must report the hit in
// the plan span, attach the trace to a caller-private copy, and leave
// the shared cached response untouched for untraced callers.
func TestTraceOnCachedResponse(t *testing.T) {
	s := obsFixture(t, 1, 120, Config{Workers: 1})
	str := "bus"
	req := Request{
		Collection: shardTestCol,
		Filter:     &FilterSpec{Field: "label", Str: &str},
		Trace:      true,
	}
	first, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.TraceID == "" || first.CacheHit {
		t.Fatalf("first traced query: id=%q hit=%v, want traced miss", first.TraceID, first.CacheHit)
	}
	second, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.TraceData == nil {
		t.Fatalf("second traced query: hit=%v trace=%v, want traced hit", second.CacheHit, second.TraceData)
	}
	if got := spansByName(second.TraceData)["plan"][0].Attrs["cache"]; got != "hit" {
		t.Fatalf("cached query's plan span says cache=%q, want hit", got)
	}
	// The untraced caller must see the pristine shared object.
	req.Trace = false
	third, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if third.TraceID != "" || third.TraceData != nil {
		t.Fatalf("untraced query leaked trace state: id=%q data=%v", third.TraceID, third.TraceData)
	}
}

// TestTraceSampling: with TraceSample set and no per-request opt-in, a
// stride of queries gets span capture — visible only in the slow log
// (responses stay trace-free).
func TestTraceSampling(t *testing.T) {
	s := obsFixture(t, 1, 60, Config{
		Workers:            1,
		TraceSample:        0.5,
		SlowQueryThreshold: time.Nanosecond, // everything is "slow"
	})
	str := "car"
	for i := 0; i < 4; i++ {
		resp, err := s.Query(context.Background(), Request{
			Collection: shardTestCol,
			Filter:     &FilterSpec{Field: "label", Str: &str},
			Limit:      1 + i, // distinct fingerprints: each query executes
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.TraceID != "" || resp.TraceData != nil {
			t.Fatal("sampled trace must not attach to the response without an explicit request")
		}
	}
	traced := 0
	for _, e := range s.SlowQueries() {
		if e.Trace != nil {
			traced++
		}
	}
	if traced != 2 {
		t.Fatalf("1-in-2 sampling over 4 queries captured %d traces, want 2", traced)
	}
}

// TestTinyTraceSampleTracesNothing: a rate whose 1-in-N stride is past
// MaxInt64 samples no query, rather than wrapping to a stride of 1.
func TestTinyTraceSampleTracesNothing(t *testing.T) {
	s := obsFixture(t, 1, 60, Config{
		Workers:            1,
		TraceSample:        1e-20,
		SlowQueryThreshold: time.Nanosecond,
	})
	str := "car"
	for i := 0; i < 3; i++ {
		if _, err := s.Query(context.Background(), Request{
			Collection: shardTestCol,
			Filter:     &FilterSpec{Field: "label", Str: &str},
			Limit:      1 + i,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range s.SlowQueries() {
		if e.Trace != nil {
			t.Fatalf("TraceSample 1e-20 traced query %q", e.Fingerprint)
		}
	}
	if n := s.tel.traced.Value(); n != 0 {
		t.Fatalf("deeplens_traced_queries_total = %d at TraceSample 1e-20, want 0", n)
	}
}

// TestSlowQueryLog: the ring keeps the newest entries, newest first,
// each carrying the request description and fingerprint.
func TestSlowQueryLog(t *testing.T) {
	s := obsFixture(t, 1, 120, Config{
		Workers:            1,
		SlowQueryThreshold: time.Nanosecond,
	})
	str := "pedestrian"
	const queries = slowLogEntries + 6
	for i := 0; i < queries; i++ {
		if _, err := s.Query(context.Background(), Request{
			Collection: shardTestCol,
			Filter:     &FilterSpec{Field: "label", Str: &str},
			Limit:      1 + i,
		}); err != nil {
			t.Fatal(err)
		}
	}
	entries := s.SlowQueries()
	if len(entries) != slowLogEntries {
		t.Fatalf("slow log holds %d entries, want the newest %d", len(entries), slowLogEntries)
	}
	for i, e := range entries {
		if e.Query == "" || e.Fingerprint == "" {
			t.Fatalf("entry %d is missing query/fingerprint: %+v", i, e)
		}
		if i > 0 && e.Time.After(entries[i-1].Time) {
			t.Fatalf("entries not newest-first: %v after %v", e.Time, entries[i-1].Time)
		}
	}
	// The newest entry is the last query, the oldest kept the one the
	// ring's bound reaches back to.
	if want := fmt.Sprintf("limit(%d)", queries); !strings.Contains(entries[0].Query, want) {
		t.Fatalf("newest entry %q does not mention %s", entries[0].Query, want)
	}
	if want := fmt.Sprintf("limit(%d)", queries-slowLogEntries+1); !strings.Contains(entries[len(entries)-1].Query, want) {
		t.Fatalf("oldest entry %q does not mention %s", entries[len(entries)-1].Query, want)
	}
}

// TestDescribeFilterConstant: the slow-query log shows a filter's
// constant as the value it is, not as a struct dump.
func TestDescribeFilterConstant(t *testing.T) {
	str, n, f := "cls05", int64(-3), 0.25
	for _, tc := range []struct {
		filter FilterSpec
		want   string
	}{
		{FilterSpec{Field: "label", Str: &str}, "c filter(label=cls05) limit(2)"},
		{FilterSpec{Field: "rank", Int: &n}, "c filter(rank=-3) limit(2)"},
		{FilterSpec{Field: "score", Float: &f}, "c filter(score=0.25) limit(2)"},
	} {
		r := Request{Collection: "c", Filter: &tc.filter, Limit: 2}
		if got := r.describe(); got != tc.want {
			t.Errorf("describe() = %q, want %q", got, tc.want)
		}
	}
}

// TestMetricsEndpoint: GET /metrics must emit well-formed Prometheus
// text (no duplicate series, complete histogram families) whose
// counters agree with the queries this test ran, with the Go runtime's
// heap and GC series set once a GC has run.
func TestMetricsEndpoint(t *testing.T) {
	s := obsFixture(t, 2, 200, Config{Workers: 2})
	str := "car"
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := s.Query(context.Background(), Request{
			Collection: shardTestCol,
			Filter:     &FilterSpec{Field: "label", Str: &str},
			NoCache:    true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC() // completes a cycle, so the Go runtime's heap and GC series are set
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics returned %d", rec.Code)
	}
	exp, err := obs.CheckExposition(rec.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	if v, ok := exp.Value("deeplens_queries_completed_total", nil); !ok || v != n {
		t.Fatalf("deeplens_queries_completed_total = %v (found=%v), want %d", v, ok, n)
	}
	if v, ok := exp.Value("deeplens_query_duration_seconds_count", nil); !ok || v != n {
		t.Fatalf("deeplens_query_duration_seconds_count = %v (found=%v), want %d", v, ok, n)
	}
	if v, ok := exp.Value("deeplens_scatter_fanout_count", nil); !ok || v != n {
		t.Fatalf("deeplens_scatter_fanout_count = %v (found=%v), want %d", v, ok, n)
	}
	if _, ok := exp.Value("deeplens_cache_hit_rate", map[string]string{"cache": "result"}); !ok {
		t.Fatal("deeplens_cache_hit_rate{cache=\"result\"} is missing")
	}
	for _, name := range []string{"deeplens_go_heap_live_bytes", "deeplens_go_gc_cycles_total", "deeplens_go_gc_cpu_seconds_total"} {
		if v, ok := exp.Value(name, nil); !ok || !(v > 0) {
			t.Fatalf("%s = %v (found=%v), want > 0 after a GC", name, v, ok)
		}
	}
}

const metricsSurfaceFile = "testdata/metrics_surface.txt"

// TestMetricsSurface pins /metrics as a surface: every family's HELP
// and TYPE line and every series' name and label set, with values
// stripped and lines sorted, on a 2-shard, 2-replica, tiered service
// after one kNN query (go test ./internal/service -run MetricsSurface
// -update rewrites the file).
func TestMetricsSurface(t *testing.T) {
	_, s := synthReplicated(t, 2, 2, 3*1024, Config{Workers: 2, ColumnMemBudget: 32 << 10})
	if _, err := s.Query(context.Background(), Request{
		Collection: shardTestCol,
		KNN:        &KNNSpec{Field: "emb", K: 3, Query: knnQ(1)},
	}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		lines = append(lines, line)
	}
	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(metricsSurfaceFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(metricsSurfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics surface changed:\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one of want and got holds.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out []string
	for _, l := range w {
		if !slices.Contains(g, l) {
			out = append(out, "- "+l)
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			out = append(out, "+ "+l)
		}
	}
	return strings.Join(out, "\n")
}

// TestDebugSlowAndHealthz: the slow-log endpoint serves JSON and the
// liveness probe reports uptime without building a Stats snapshot.
func TestDebugSlowAndHealthz(t *testing.T) {
	s := obsFixture(t, 1, 60, Config{Workers: 1, SlowQueryThreshold: time.Nanosecond})
	str := "car"
	if _, err := s.Query(context.Background(), Request{
		Collection: shardTestCol,
		Filter:     &FilterSpec{Field: "label", Str: &str},
	}); err != nil {
		t.Fatal(err)
	}
	traced, err := s.Query(context.Background(), Request{
		Collection: shardTestCol,
		Filter:     &FilterSpec{Field: "label", Str: &str},
		Limit:      3,
		Trace:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slow", nil))
	var slow struct {
		ThresholdMS float64         `json:"threshold_ms"`
		Entries     []obs.SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatalf("/debug/slow: %v", err)
	}
	if len(slow.Entries) != 2 {
		t.Fatalf("/debug/slow has %d entries after two slow queries, want 2", len(slow.Entries))
	}
	// Newest first: the traced query, with its description and trace.
	if e := slow.Entries[0]; !strings.Contains(e.Query, "limit(3)") || e.Trace == nil || e.Trace.ID != traced.TraceID {
		t.Fatalf("traced slow entry = %+v, want limit(3) with trace %q", e, traced.TraceID)
	}
	if slow.Entries[1].Trace != nil {
		t.Fatal("an untraced slow entry carries a trace")
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var health struct {
		Status    string  `json:"status"`
		UptimeSec float64 `json:"uptime_sec"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	if health.Status != "ok" || health.UptimeSec < 0 {
		t.Fatalf("/healthz = %+v", health)
	}
}

// statsContract mirrors every JSON field Stats currently exposes. The
// decoder below runs with DisallowUnknownFields, so renaming or adding
// a /stats field fails this test until the contract (and any dashboards
// reading it) are updated deliberately; the key check catches drops.
type statsContract struct {
	UptimeSec         float64           `json:"uptime_sec"`
	Workers           int               `json:"workers"`
	QueueCap          int               `json:"queue_cap"`
	QueueDepth        int               `json:"queue_depth"`
	Sources           int               `json:"sources"`
	Admitted          int64             `json:"admitted"`
	Rejected          int64             `json:"rejected"`
	Coalesced         int64             `json:"coalesced"`
	Completed         int64             `json:"completed"`
	Failed            int64             `json:"failed"`
	InFlight          int64             `json:"in_flight"`
	PeakInFlight      int64             `json:"peak_in_flight"`
	Appends           int64             `json:"appends"`
	AppendedRows      int64             `json:"appended_rows"`
	ColumnExtends     int64             `json:"column_extends"`
	ExtendReuseBlocks int64             `json:"extend_reuse_blocks"`
	ExtendTotalBlocks int64             `json:"extend_total_blocks"`
	SegmentSpills     int64             `json:"segment_spills"`
	SegmentLoads      int64             `json:"segment_loads"`
	SegmentTransient  int64             `json:"segment_transient_loads"`
	SegmentLoadFaults int64             `json:"segment_load_faults"`
	SegmentEvictions  int64             `json:"segment_evictions"`
	SegmentResBytes   int64             `json:"segment_resident_bytes"`
	ColumnMemBudget   int64             `json:"column_mem_budget"`
	KNNQueries        int64             `json:"knn_queries"`
	IndexExtends      int64             `json:"index_extends"`
	IndexRebuilds     int64             `json:"index_rebuilds"`
	KNNEvalsIndex     int64             `json:"knn_distance_evals_index"`
	KNNEvalsScan      int64             `json:"knn_distance_evals_scan"`
	ScalarSorted      int64             `json:"scalar_segments_sorted"`
	GoHeapLiveBytes   int64             `json:"go_heap_live_bytes"`
	GoGCCycles        int64             `json:"go_gc_cycles"`
	GoGCCPUSeconds    float64           `json:"go_gc_cpu_seconds"`
	ResultCache       CacheStats        `json:"result_cache"`
	UDFCache          CacheStats        `json:"udf_cache"`
	ResultHitRate     float64           `json:"result_hit_rate"`
	Device            string            `json:"device"`
	Devices           int               `json:"devices"`
	DeviceKernels     int64             `json:"device_kernels"`
	DeviceLaunches    int64             `json:"device_launches"`
	DeviceFLOPs       int64             `json:"device_flops"`
	DeviceOverheadMS  float64           `json:"device_overhead_ms"`
	Batcher           exec.BatcherStats `json:"batcher"`
	FusionFactor      float64           `json:"fusion_factor"`
	Shards            int               `json:"shards"`
	Replicas          int               `json:"replicas"`
	ShardInfo         []core.ShardInfo  `json:"shard_info"`
	ScatterQueries    int64             `json:"scatter_queries"`
	ScatterTasks      int64             `json:"scatter_tasks"`
	MergeTimeMS       float64           `json:"merge_time_ms"`
	HedgedFragments   int64             `json:"hedged_fragments"`
	FragmentRetries   int64             `json:"fragment_retries"`
	DegradedQueries   int64             `json:"degraded_queries"`
	ReplicaAppendErrs int64             `json:"replica_append_errors"`
	ReplicaResyncs    int64             `json:"replica_resyncs"`
	ResyncRows        int64             `json:"resync_rows"`
	OutOfSyncReplicas int               `json:"out_of_sync_replicas"`
	AdmissionShed     int64             `json:"admission_shed"`
}

// TestStatsJSONContract pins the /stats response shape: every field the
// contract lists must be present (drops and renames fail), and no field
// may appear that the contract does not know (renames surface as
// unknowns).
func TestStatsJSONContract(t *testing.T) {
	s := obsFixture(t, 2, 100, Config{Workers: 1})
	str := "car"
	if _, err := s.Query(context.Background(), Request{
		Collection: shardTestCol,
		Filter:     &FilterSpec{Field: "label", Str: &str},
	}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/stats returned %d", rec.Code)
	}
	raw := rec.Body.Bytes()

	strict := json.NewDecoder(bytes.NewReader(raw))
	strict.DisallowUnknownFields()
	var got statsContract
	if err := strict.Decode(&got); err != nil {
		t.Fatalf("/stats no longer matches the contract (renamed or new field?): %v", err)
	}

	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"uptime_sec", "workers", "queue_cap", "queue_depth", "sources",
		"admitted", "rejected", "coalesced", "completed", "failed",
		"in_flight", "peak_in_flight",
		"appends", "appended_rows", "column_extends", "extend_reuse_blocks", "extend_total_blocks",
		"segment_spills", "segment_loads", "segment_transient_loads", "segment_load_faults",
		"segment_evictions", "segment_resident_bytes", "column_mem_budget",
		"knn_queries", "index_extends", "index_rebuilds",
		"knn_distance_evals_index", "knn_distance_evals_scan", "scalar_segments_sorted",
		"go_heap_live_bytes", "go_gc_cycles", "go_gc_cpu_seconds",
		"result_cache", "udf_cache", "result_hit_rate",
		"device", "devices", "device_kernels", "device_launches", "device_flops", "device_overhead_ms",
		"batcher", "fusion_factor",
		"shards", "replicas", "shard_info", "scatter_queries", "scatter_tasks", "merge_time_ms",
		"hedged_fragments", "fragment_retries", "degraded_queries", "replica_append_errors",
		"replica_resyncs", "resync_rows", "out_of_sync_replicas",
		"admission_shed",
	} {
		if _, ok := keys[want]; !ok {
			t.Errorf("/stats dropped field %q", want)
		}
	}
	if got.Completed < 1 || got.Admitted < 1 {
		t.Fatalf("counters did not move: %+v", got)
	}
}

// TestTracingOverheadBound: with sampling off, an untraced query pays
// only nil-trace branches; its min-wall must stay close to a build
// where the same query runs traced. The margin is deliberately loose —
// this is a regression tripwire for accidentally putting allocation or
// locking on the untraced path, not a benchmark.
func TestTracingOverheadBound(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock ratios are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	s := obsFixture(t, 1, 2000, Config{Workers: 2})
	str := "car"
	run := func(traced bool) float64 {
		best := math.Inf(1)
		for i := 0; i < 40; i++ {
			req := Request{
				Collection: shardTestCol,
				Filter:     &FilterSpec{Field: "label", Str: &str},
				NoCache:    true,
				Trace:      traced,
			}
			t0 := time.Now()
			if _, err := s.Query(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			best = math.Min(best, time.Since(t0).Seconds())
		}
		return best
	}
	run(false) // warm both paths (snapshot + column store)
	run(true)
	untraced := run(false)
	traced := run(true)
	if untraced <= 0 {
		t.Skip("clock resolution too coarse for this machine")
	}
	// Span capture costs a handful of microseconds absolute (mutex, span
	// records, the Data() copy), which dwarfs a microsecond-scale test
	// query but vanishes on production ones — so the bound is relative
	// plus a small absolute allowance.
	if traced > untraced*1.25+100e-6 {
		t.Fatalf("traced min-wall %.0fµs vs untraced %.0fµs: tracing overhead out of bounds",
			traced*1e6, untraced*1e6)
	}
}

func BenchmarkUntracedQuery(b *testing.B) {
	benchmarkQuery(b, false)
}

func BenchmarkTracedQuery(b *testing.B) {
	benchmarkQuery(b, true)
}

func benchmarkQuery(b *testing.B, traced bool) {
	s := obsFixture(b, 1, 2000, Config{Workers: 2})
	str := "car"
	req := Request{
		Collection: shardTestCol,
		Filter:     &FilterSpec{Field: "label", Str: &str},
		NoCache:    true,
		Trace:      traced,
	}
	ctx := context.Background()
	if _, err := s.Query(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
