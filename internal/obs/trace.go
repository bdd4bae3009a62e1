// Package obs is DeepLens's dependency-light observability layer:
// per-query traces (timed spans), a metrics registry of lock-cheap
// counters/gauges and fixed-bucket latency histograms exported in
// Prometheus text format, a bounded in-memory slow-query log, and the
// shared latency-summary helper the load generator and benchmark tools
// derive percentiles from.
//
// Everything is safe for concurrent use and nil-tolerant on the hot
// path: a nil *Trace (tracing off) makes every span operation a no-op
// branch, so instrumentation sites never check whether tracing is on.
package obs

import (
	"strconv"
	"sync"
	"time"
)

// maxSpans bounds one trace's span count: a runaway instrumentation
// site (one span per kernel in a huge join) degrades to a drop counter
// instead of unbounded memory.
const maxSpans = 512

// Span is one timed, attributed interval of a trace. Start and
// duration are microseconds; Start is the offset from the trace's
// start, so spans are self-contained in JSON.
type Span struct {
	Name    string            `json:"name"`
	StartUS float64           `json:"start_us"`
	DurUS   float64           `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// TraceData is a trace's immutable snapshot — what a traced /query
// response carries and what the slow-query log retains.
type TraceData struct {
	ID    string  `json:"id"`
	DurUS float64 `json:"dur_us"`
	Spans []Span  `json:"spans"`
	// Dropped counts spans discarded past the per-trace cap.
	Dropped int `json:"dropped_spans,omitempty"`
}

// Trace accumulates the timed spans of one request. Spans may be
// recorded from any goroutine (scatter fragments run in parallel). All
// methods are safe on a nil receiver, so call sites need no
// tracing-enabled branch.
type Trace struct {
	id    string
	start time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTrace starts a trace identified by id, anchored at now.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace id ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns the trace's anchor time (zero on nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// AddSpan records a completed interval. Nil-safe; attrs may be nil and
// is retained (callers must not mutate it afterwards).
func (t *Trace) AddSpan(name string, start time.Time, dur time.Duration, attrs map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{
		Name:    name,
		StartUS: float64(start.Sub(t.start).Nanoseconds()) / 1e3,
		DurUS:   float64(dur.Nanoseconds()) / 1e3,
		Attrs:   attrs,
	})
}

// Begin opens a span ending at the matching SpanHandle.End. Returns a
// nil handle on a nil trace (every handle method is nil-safe too).
func (t *Trace) Begin(name string) *SpanHandle {
	if t == nil {
		return nil
	}
	return &SpanHandle{t: t, name: name, start: time.Now(), idx: -1}
}

// Data snapshots the trace; DurUS is the wall time since the trace
// started (call it when the request completes). Returns nil on nil.
func (t *Trace) Data() *TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	return &TraceData{
		ID:      t.id,
		DurUS:   float64(time.Since(t.start).Nanoseconds()) / 1e3,
		Spans:   spans,
		Dropped: t.dropped,
	}
}

// SpanHandle is one in-progress (or just-ended) span. Attr may be
// called before or after End: plan labels are often only known after
// the interval being timed has closed.
type SpanHandle struct {
	t     *Trace
	name  string
	start time.Time
	attrs map[string]string
	idx   int // index into t.spans once ended, -1 before
	ended bool
}

// Attr sets one attribute, before or after End. Returns the handle for
// chaining; nil-safe.
func (h *SpanHandle) Attr(key, val string) *SpanHandle {
	if h == nil {
		return nil
	}
	h.t.mu.Lock()
	defer h.t.mu.Unlock()
	if h.ended {
		if h.idx >= 0 {
			sp := &h.t.spans[h.idx]
			if sp.Attrs == nil {
				sp.Attrs = make(map[string]string, 4)
			}
			sp.Attrs[key] = val
		}
		return h
	}
	if h.attrs == nil {
		h.attrs = make(map[string]string, 4)
	}
	h.attrs[key] = val
	return h
}

// AttrInt is Attr for integer values.
func (h *SpanHandle) AttrInt(key string, val int64) *SpanHandle {
	return h.Attr(key, strconv.FormatInt(val, 10))
}

// End records the span. Calling End twice records once; nil-safe.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	dur := time.Since(h.start)
	h.t.mu.Lock()
	defer h.t.mu.Unlock()
	if h.ended {
		return
	}
	h.ended = true
	if len(h.t.spans) >= maxSpans {
		h.t.dropped++
		return
	}
	h.idx = len(h.t.spans)
	h.t.spans = append(h.t.spans, Span{
		Name:    h.name,
		StartUS: float64(h.start.Sub(h.t.start).Nanoseconds()) / 1e3,
		DurUS:   float64(dur.Nanoseconds()) / 1e3,
		Attrs:   h.attrs,
	})
}
