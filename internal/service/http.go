package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/warmpool"
)

// Handler returns the service's HTTP JSON API:
//
//	POST /query      — execute a Request (JSON body), returns a Response
//	POST /append     — live-ingest an AppendRequest (single patch or a
//	                   frame-at-a-time batch), returns an AppendResponse
//	GET  /stats      — serving + cache + device + ingest counters (JSON)
//	GET  /metrics    — the registered counters and histograms, and one
//	                   Stats snapshot, as Prometheus text exposition
//	GET  /debug/slow — recent slow queries, newest first (JSON)
//	GET  /healthz    — liveness probe
//	GET  /readyz     — readiness probe: 503 with per-shard detail while
//	                   any replica is out-of-sync or a resync is running
//
// Admission overflow maps to 429 so load balancers can back off; unknown
// collections/fields map to 400 (the plan-time type checking the paper
// argues for, §4.2).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/append", s.handleAppend)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/slow", s.handleSlow)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	return mux
}

// writeJSON sends v as indented JSON under status, or a 500 when v
// cannot be encoded (a NaN float, say): the status is committed only
// once the encoding exists.
func writeJSON(w http.ResponseWriter, status int, v any) {
	cw := commitWriter{w: w, status: status}
	enc := json.NewEncoder(&cw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil && !cw.committed {
		writeEncodeError(w, err)
	}
}

func writeEncodeError(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusInternalServerError, httpError{"service: encode response: " + err.Error()})
}

// jsonContentType is the Content-Type header value of every JSON
// response, shared so that setting it allocates nothing. Header().Set
// would build a new one-element slice per response.
var jsonContentType = []string{"application/json"}

// commitWriter sends the status line with the body's first Write.
// json.Encoder.Encode calls Write once, with its complete output, and
// only after encoding succeeded, so a value that cannot be encoded
// leaves the response uncommitted.
type commitWriter struct {
	w         http.ResponseWriter
	status    int
	committed bool
}

func (c *commitWriter) Write(p []byte) (int, error) {
	if !c.committed {
		c.committed = true
		c.w.Header()["Content-Type"] = jsonContentType
		c.w.WriteHeader(c.status)
	}
	return c.w.Write(p)
}

// headCloser ends the indented encoding of a Response: the closing brace
// and Encode's newline. The head ends before it; the tail restores it.
const headCloser = "\n}\n"

// wireBuf is the scratch a /query body is appended into: the bytes, and
// the field names each row sorts. Bytes handed to a ResponseWriter
// escape, so the buffers are pooled: a warm encoding allocates nothing.
type wireBuf struct {
	b    []byte
	keys []string
}

var wireBufs warmpool.Pool[wireBuf]

// writeResponse sends a successful /query answer as its head — the
// memoized bytes of a cached result, a fresh encoding for any other —
// followed by the per-request tail. The body is byte-identical to
// writeJSON(w, http.StatusOK, resp), and like it commits no status
// before the whole body is encoded.
func writeResponse(w http.ResponseWriter, resp *Response, t hitTail) {
	var head []byte
	var err error
	if m := resp.wire; m != nil {
		// Before this request takes its own wireBuf: a first headFor
		// encodes into one, and one request holds one at a time.
		head, err = m.headFor(resp)
	}
	wb := wireBufs.Get()
	defer wireBufs.Put(wb)
	if resp.wire != nil {
		wb.b = wb.b[:0]
	} else {
		wb.b, err = resp.appendHead(wb.b[:0], &wb.keys)
	}
	if err == nil {
		wb.b, err = resp.appendTail(wb.b, t)
	}
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	// Write errors mean the client is gone: there is no one to tell.
	if head != nil {
		_, _ = w.Write(head)
	}
	_, _ = w.Write(wb.b)
}

// appendHead appends the part of the Response's indented encoding that is
// the same on every delivery of one result: value, rows, plan and
// fingerprint, up to headCloser.
func (r *Response) appendHead(b []byte, keys *[]string) ([]byte, error) {
	b = append(b, "{\n  \"value\": "...)
	b = strconv.AppendInt(b, int64(r.Value), 10)
	if len(r.Rows) > 0 {
		b = append(b, ",\n  \"rows\": ["...)
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			var err error
			if b, err = row.appendJSON(b, keys); err != nil {
				return b, err
			}
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"plan\": "...)
	b = appendJSONString(b, r.Plan)
	b = append(b, ",\n  \"fingerprint\": "...)
	return appendJSONString(b, r.Fingerprint), nil
}

// appendJSON appends the row as an element of the head's rows array:
// fields sorted bytewise, as encoding/json orders a map's keys. keys is
// the scratch the field names are sorted in.
func (r Row) appendJSON(b []byte, keys *[]string) ([]byte, error) {
	*keys = r.appendKeys((*keys)[:0])
	b = append(b, '{')
	for i, k := range *keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n      "...)
		b = appendJSONString(b, k)
		b = append(b, ": "...)
		v, u, _ := r.value(k)
		switch v.Kind {
		case core.KindInt:
			b = strconv.AppendInt(b, v.Int(), 10)
		case core.KindFloat:
			var err error
			if b, err = appendJSONFloat(b, v.Float()); err != nil {
				return b, err
			}
		case core.KindStr:
			b = appendJSONString(b, v.Str())
		default:
			b = strconv.AppendUint(b, u, 10)
		}
	}
	return append(b, "\n    }"...), nil
}

// appendTail appends what follows the head in the indented encoding of
// the whole Response, delivered with t: cache_hit, the two costs,
// duration_ms, the degraded and trace fields when set, and headCloser.
func (r *Response) appendTail(b []byte, t hitTail) ([]byte, error) {
	hit, cost, dur := r.CacheHit, r.CacheAwareCostSec, r.DurationMS
	if t.hit {
		hit, cost, dur = true, t.costSec, 0
	}
	b = append(b, ",\n  \"cache_hit\": "...)
	b = strconv.AppendBool(b, hit)
	var err error
	b = append(b, ",\n  \"est_cost_sec\": "...)
	if b, err = appendJSONFloat(b, r.EstCostSec); err != nil {
		return b, err
	}
	b = append(b, ",\n  \"cache_aware_cost_sec\": "...)
	if b, err = appendJSONFloat(b, cost); err != nil {
		return b, err
	}
	b = append(b, ",\n  \"duration_ms\": "...)
	if b, err = appendJSONFloat(b, dur); err != nil {
		return b, err
	}
	if r.Degraded {
		b = append(b, ",\n  \"degraded\": true"...)
	}
	if len(r.MissingShards) > 0 {
		b = append(b, ",\n  \"missing_shards\": ["...)
		for i, sh := range r.MissingShards {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = strconv.AppendInt(b, int64(sh), 10)
		}
		b = append(b, "\n  ]"...)
	}
	if r.TraceID != "" {
		b = append(b, ",\n  \"trace_id\": "...)
		b = appendJSONString(b, r.TraceID)
	}
	if r.TraceData != nil {
		tr, err := json.MarshalIndent(r.TraceData, "  ", "  ")
		if err != nil {
			return b, err
		}
		b = append(b, ",\n  \"trace\": "...)
		b = append(b, tr...)
	}
	return append(b, headCloser...), nil
}

// appendJSONString appends s as encoding/json encodes a string: quoted,
// with ", \ and control characters escaped, <, > and & escaped for
// HTML, U+2028 and U+2029 escaped, and each byte of invalid UTF-8
// replaced by \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json encodes a float64: the
// shortest round-trip digits, exponent form below 1e-6 and from 1e21
// up, with a two-digit negative exponent cut to one (e-07 → e-7). Like
// encoding/json it refuses NaN and ±Inf.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

type httpError struct {
	Error string `json:"error"`
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, httpError{"POST a JSON request body"})
		return
	}
	d := queryDecoders.Get()
	defer d.release()
	if err := d.decode(r.Body); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{"bad request body: " + err.Error()})
		return
	}
	resp, t, err := s.query(r.Context(), &d.req)
	switch {
	case err == nil:
		writeResponse(w, resp, t)
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, httpError{err.Error()})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, httpError{err.Error()})
	case errors.Is(err, core.ErrNotFound):
		writeJSON(w, http.StatusNotFound, httpError{err.Error()})
	case errors.Is(err, ErrQueryTimeout):
		// The server's own deadline fired (client is still waiting):
		// gateway timeout, and worth retrying once load drains.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusGatewayTimeout, httpError{err.Error()})
	case errors.Is(err, r.Context().Err()):
		writeJSON(w, http.StatusRequestTimeout, httpError{err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, httpError{err.Error()})
	}
}

func (s *Service) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, httpError{"POST a JSON append body"})
		return
	}
	d := appendDecoders.Get()
	defer d.release()
	if err := d.decode(r.Body); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{"bad append body: " + err.Error()})
		return
	}
	resp, err := s.appendPatches(r.Context(), d.collection, d.count(), d.build)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrOverloaded):
		// The write gate is saturated: same backpressure contract as
		// /query, so load balancers slow the producer instead of the
		// producer starving reads.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, httpError{err.Error()})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, httpError{err.Error()})
	case errors.Is(err, ErrAppendStorage):
		// A storage fault after validation (the message says how many
		// rows committed): retryable, unlike a 400.
		writeJSON(w, http.StatusInternalServerError, httpError{err.Error()})
	case errors.Is(err, core.ErrNotFound):
		writeJSON(w, http.StatusNotFound, httpError{err.Error()})
	case errors.Is(err, r.Context().Err()):
		writeJSON(w, http.StatusRequestTimeout, httpError{err.Error()})
	default:
		// Schema violations (core.ErrInvalidPatch) and malformed specs:
		// the ingest-time type checking mirroring /query's plan-time 400s.
		writeJSON(w, http.StatusBadRequest, httpError{err.Error()})
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Metrics().WritePrometheus(w)
}

func (s *Service) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ms": float64(s.cfg.SlowQueryThreshold.Microseconds()) / 1000,
		"entries":      s.SlowQueries(),
	})
}

// handleReady is the readiness probe: unlike /healthz (pure liveness),
// it reports not-ready (503) while any replica is out of the read set
// or a repair is in flight, with per-shard detail — so rolling deploys
// and load balancers wait for the fleet to heal before routing traffic
// that expects full hedge headroom.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "status": "closed"})
		return
	}
	lags := s.shards.OutOfSyncReplicas()
	if len(lags) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"ready":       false,
		"out_of_sync": lags,
	})
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "closed"})
		return
	}
	// The liveness probe reads the start timestamp directly — building a
	// full Stats() snapshot (merge locks, cache sweeps) just for uptime
	// made the cheapest endpoint the most expensive one.
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_sec": time.Since(s.start).Seconds(),
	})
}
