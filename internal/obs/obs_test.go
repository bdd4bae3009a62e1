package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTrace("req-1")
	h := tr.Begin("plan")
	h.Attr("cache", "miss")
	time.Sleep(time.Millisecond)
	h.End()
	h.Attr("plan", "column-scan") // attr after End must land on the recorded span
	h.End()                       // double End must not duplicate

	tr.AddSpan("queue", tr.Start(), 2*time.Millisecond, map[string]string{"depth": "3"})

	d := tr.Data()
	if d.ID != "req-1" {
		t.Fatalf("trace id = %q", d.ID)
	}
	if len(d.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(d.Spans))
	}
	plan := d.Spans[0]
	if plan.Name != "plan" || plan.Attrs["cache"] != "miss" || plan.Attrs["plan"] != "column-scan" {
		t.Fatalf("plan span = %+v", plan)
	}
	if plan.DurUS < 500 {
		t.Fatalf("plan span duration %.1fus, want >= 500us", plan.DurUS)
	}
	if d.Spans[1].Name != "queue" || d.Spans[1].Attrs["depth"] != "3" {
		t.Fatalf("queue span = %+v", d.Spans[1])
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.AddSpan("x", time.Now(), time.Millisecond, nil)
	h := tr.Begin("y")
	h.Attr("k", "v").AttrInt("n", 7)
	h.End()
	if tr.Data() != nil {
		t.Fatal("nil trace Data should be nil")
	}
	if tr.ID() != "" {
		t.Fatal("nil trace ID should be empty")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("cap")
	for i := 0; i < maxSpans+10; i++ {
		tr.AddSpan("s", tr.Start(), time.Microsecond, nil)
	}
	d := tr.Data()
	if len(d.Spans) != maxSpans {
		t.Fatalf("spans = %d, want cap %d", len(d.Spans), maxSpans)
	}
	if d.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", d.Dropped)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("conc")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				h := tr.Begin("frag")
				h.AttrInt("j", int64(j))
				h.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Data().Spans); got != 160 {
		t.Fatalf("spans = %d, want 160", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // uniform over [0.5, 7.5]
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	// 12 full 0..7 cycles plus {0,1,2,3}, each shifted by 0.5.
	if math.Abs(h.Sum()-392) > 1e-9 {
		t.Fatalf("sum = %g, want 392", h.Sum())
	}
	p50 := h.Quantile(0.5)
	if p50 < 2 || p50 > 4 {
		t.Fatalf("p50 = %g, want within (2,4]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 4 || p99 > 8 {
		t.Fatalf("p99 = %g, want within (4,8]", p99)
	}
	// Overflow bucket clamps to the top finite bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if q := h2.Quantile(0.5); q != 1 {
		t.Fatalf("overflow quantile = %g, want 1", q)
	}
}

func TestSlowLogRingAndThreshold(t *testing.T) {
	l := NewSlowLog(10*time.Millisecond, 3)
	l.Observe(5*time.Millisecond, "fast", "", nil) // below threshold
	for i, q := range []string{"a", "b", "c", "d"} {
		l.Observe(time.Duration(11+i)*time.Millisecond, q, "fp", nil)
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("entries = %d, want 3", len(got))
	}
	// Newest first; "a" was evicted.
	if got[0].Query != "d" || got[1].Query != "c" || got[2].Query != "b" {
		t.Fatalf("order = %q %q %q", got[0].Query, got[1].Query, got[2].Query)
	}

	if l.Records(9*time.Millisecond) || !l.Records(10*time.Millisecond) {
		t.Fatal("Records must agree with the threshold Observe applies")
	}

	var nilLog *SlowLog
	nilLog.Observe(time.Second, "x", "", nil)
	if nilLog.Snapshot() != nil || nilLog.Records(time.Second) {
		t.Fatal("nil slowlog must record nothing")
	}
	off := NewSlowLog(0, 4)
	off.Observe(time.Hour, "x", "", nil)
	if len(off.Snapshot()) != 0 || off.Records(time.Hour) {
		t.Fatal("disabled slowlog must not record")
	}
}

func TestRegistryPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("deeplens_queries_total", "Total queries.", nil)
	c.Add(42)
	r.Counter("deeplens_cache_ops_total", "Cache ops.", map[string]string{"cache": "result", "op": "hit"}).Add(7)
	r.Collect(func(emit Emit) {
		emit("deeplens_queue_depth", "Current depth.", "gauge", nil, 3)
		emit("deeplens_evals_total", "Evaluations.", "counter", map[string]string{"method": "index"}, 5)
		emit("deeplens_evals_total", "Evaluations.", "counter", map[string]string{"method": "scan"}, 6)
	})
	h := r.Histogram("deeplens_query_duration_seconds", "Latency.", nil, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	exp, err := CheckExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("CheckExposition: %v\n%s", err, text)
	}
	if exp.Types["deeplens_query_duration_seconds"] != "histogram" {
		t.Fatalf("type = %q", exp.Types["deeplens_query_duration_seconds"])
	}
	if v, ok := exp.Value("deeplens_queries_total", nil); !ok || v != 42 {
		t.Fatalf("queries_total = %g, %v", v, ok)
	}
	if v, ok := exp.Value("deeplens_cache_ops_total", map[string]string{"cache": "result", "op": "hit"}); !ok || v != 7 {
		t.Fatalf("labeled counter = %g, %v", v, ok)
	}
	if v, ok := exp.Value("deeplens_queue_depth", nil); !ok || v != 3 {
		t.Fatalf("gauge = %g, %v", v, ok)
	}
	if v, ok := exp.Value("deeplens_evals_total", map[string]string{"method": "scan"}); !ok || v != 6 || exp.Types["deeplens_evals_total"] != "counter" {
		t.Fatalf("snapshot counter = %g, %v, type %q", v, ok, exp.Types["deeplens_evals_total"])
	}
	if n := strings.Count(text, "# TYPE deeplens_evals_total"); n != 1 {
		t.Fatalf("snapshot family has %d TYPE lines, want 1", n)
	}
	if v, ok := exp.Value("deeplens_query_duration_seconds_count", nil); !ok || v != 3 {
		t.Fatalf("hist count = %g, %v", v, ok)
	}
	if v, ok := exp.Value("deeplens_query_duration_seconds_bucket", map[string]string{"le": "+Inf"}); !ok || v != 3 {
		t.Fatalf("+Inf bucket = %g, %v", v, ok)
	}

	// Same counter handle again — must be the same series, not a dup.
	if got := r.Counter("deeplens_queries_total", "Total queries.", nil); got != c {
		t.Fatal("re-registering a counter must return the same handle")
	}
}

func TestCheckExpositionRejectsDuplicates(t *testing.T) {
	dup := "a_total 1\na_total 2\n"
	if _, err := CheckExposition(strings.NewReader(dup)); err == nil {
		t.Fatal("duplicate series must be rejected")
	}
	bad := "9bad_name 1\n"
	if _, err := CheckExposition(strings.NewReader(bad)); err == nil {
		t.Fatal("invalid metric name must be rejected")
	}
	noval := "a_total\n"
	if _, err := CheckExposition(strings.NewReader(noval)); err == nil {
		t.Fatal("missing value must be rejected")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DefaultLatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(seed*j%97) / 100)
			}
		}(i + 1)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
}
