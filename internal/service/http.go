package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
)

// Handler returns the service's HTTP JSON API:
//
//	POST /query      — execute a Request (JSON body), returns a Response
//	POST /append     — live-ingest an AppendRequest (single patch or a
//	                   frame-at-a-time batch), returns an AppendResponse
//	GET  /stats      — serving + cache + device + ingest counters (JSON)
//	GET  /metrics    — the same state as Prometheus text exposition
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type httpError struct {
	Error string `json:"error"`
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, httpError{"POST a JSON request body"})
		return
	}
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{"bad request body: " + err.Error()})
		return
	}
	resp, err := s.Query(r.Context(), req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retryAfterHeader(err))
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
	var req AppendRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{"bad append body: " + err.Error()})
		return
	}
	resp, err := s.Append(r.Context(), req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrOverloaded):
		// The write gate is saturated: same backpressure contract as
		// /query, so load balancers slow the producer instead of the
		// producer starving reads.
		w.Header().Set("Retry-After", retryAfterHeader(err))
		writeJSON(w, http.StatusTooManyRequests, httpError{err.Error()})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, httpError{err.Error()})
	case errors.Is(err, ErrAppendStorage):
		// Server-side fault after validation (a prefix may be committed;
		// the message says how much): retryable, unlike a 400.
		writeJSON(w, http.StatusInternalServerError, httpError{err.Error()})
	case errors.Is(err, core.ErrNotFound):
		writeJSON(w, http.StatusNotFound, httpError{err.Error()})
	case errors.Is(err, r.Context().Err()):
		writeJSON(w, http.StatusRequestTimeout, httpError{err.Error()})
	default:
		// Schema violations and malformed specs: the ingest-time type
		// checking mirroring /query's plan-time 400s.
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

// retryAfterHeader renders an overload rejection's cost-aware backoff
// hint in whole seconds (minimum 1, the pre-typed-error contract).
func retryAfterHeader(err error) string {
	var oe *OverloadError
	if errors.As(err, &oe) {
		secs := int(oe.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		return strconv.Itoa(secs)
	}
	return "1"
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
