package obs

import (
	"sync"
	"time"
)

// SlowEntry is one retained slow query.
type SlowEntry struct {
	Time        time.Time  `json:"time"`
	DurMS       float64    `json:"duration_ms"`
	Query       string     `json:"query"`
	Fingerprint string     `json:"fingerprint,omitempty"`
	Trace       *TraceData `json:"trace,omitempty"`
}

// SlowLog is a bounded ring buffer of queries slower than a threshold.
// A threshold <= 0 disables recording entirely.
type SlowLog struct {
	threshold time.Duration

	mu      sync.Mutex
	entries []SlowEntry // ring, len == cap once full
	next    int         // write cursor
	full    bool
}

// NewSlowLog retains the most recent size entries at or over
// threshold. size <= 0 defaults to 64.
func NewSlowLog(threshold time.Duration, size int) *SlowLog {
	if size <= 0 {
		size = 64
	}
	return &SlowLog{threshold: threshold, entries: make([]SlowEntry, 0, size)}
}

// Records reports whether Observe keeps a query of this duration, so a
// caller can skip building the entry's description when it would not.
// Nil-safe.
func (l *SlowLog) Records(dur time.Duration) bool {
	return l != nil && l.threshold > 0 && dur >= l.threshold
}

// Observe records the query if it meets the threshold. Nil-safe.
func (l *SlowLog) Observe(dur time.Duration, query, fingerprint string, trace *TraceData) {
	if !l.Records(dur) {
		return
	}
	e := SlowEntry{
		Time:        time.Now(),
		DurMS:       float64(dur.Nanoseconds()) / 1e6,
		Query:       query,
		Fingerprint: fingerprint,
		Trace:       trace,
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) < cap(l.entries) {
		l.entries = append(l.entries, e)
		l.next = len(l.entries) % cap(l.entries)
		l.full = len(l.entries) == cap(l.entries) && l.next == 0
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % cap(l.entries)
	l.full = true
}

// Snapshot returns the retained entries newest-first. Nil-safe.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.entries)
	if n == 0 {
		return nil
	}
	out := make([]SlowEntry, 0, n)
	// Walk backwards from the newest write.
	for i := 0; i < n; i++ {
		idx := (l.next - 1 - i + n) % n
		out = append(out, l.entries[idx])
	}
	return out
}
