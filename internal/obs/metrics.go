package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets are the fixed upper bounds (seconds) for
// request-latency histograms: 100µs up to 10s in roughly 1-2.5-5
// steps, wide enough for both in-memory point lookups and cold
// scattered joins.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// FanoutBuckets bounds small-integer distributions (scatter fan-out
// width, batch sizes).
var FanoutBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// Counter is a monotonically increasing metric. The zero value is
// unusable; obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution with atomic per-bucket
// counts. Bucket i counts observations <= bounds[i]; one extra
// overflow bucket counts the rest (+Inf).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0..1) by locating the bucket
// holding the target rank and interpolating linearly within it. The
// overflow bucket returns the top finite bound. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	counts := make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return bucketQuantile(h.bounds, counts, total, q)
}

// bucketQuantile interpolates the q-quantile within the bucket holding
// rank q*total. counts are per-bucket (not cumulative),
// len(counts) == len(bounds)+1.
func bucketQuantile(bounds []float64, counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(bounds) {
				// Overflow bucket: no finite upper edge.
				if len(bounds) == 0 {
					return 0
				}
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// metricKind discriminates family types in the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindHistogram
)

// series is one (labels -> value) instance inside a family.
type series struct {
	labels string // pre-rendered `{k="v",...}` or ""
	ctr    *Counter
	hist   *Histogram
}

// family is one named metric with help text, a type, and its series in
// insertion order.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	index  map[string]*series
}

// Registry holds metric families and renders them as Prometheus text
// exposition. Get-or-create methods panic on a name registered twice
// with different types — that is a programming error, not runtime
// input.
type Registry struct {
	mu       sync.Mutex
	families []*family
	index    map[string]*family
	collect  func(Emit)
}

// Emit writes one series of a snapshot family: its family name, HELP
// text, TYPE ("counter" or "gauge"), labels (nil for none) and value.
type Emit func(name, help, typ string, labels map[string]string, v float64)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// get returns the series of name with labels, creating the family and
// the series (its counter, or its histogram with buckets) on first use.
func (r *Registry) get(name, help string, kind metricKind, labels map[string]string, buckets []float64) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, index: make(map[string]*series)}
		r.families = append(r.families, f)
		r.index[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	s := f.index[key]
	if s == nil {
		s = &series{labels: key}
		if kind == kindCounter {
			s.ctr = &Counter{}
		} else {
			s.hist = newHistogram(buckets)
		}
		f.series = append(f.series, s)
		f.index[key] = s
	}
	return s
}

// Counter returns the counter named name with the given labels,
// creating it on first use. labels may be nil.
func (r *Registry) Counter(name, help string, labels map[string]string) *Counter {
	return r.get(name, help, kindCounter, labels, nil).ctr
}

// Collect sets the registry's snapshot hook: WritePrometheus calls fn
// once per render, after the registered families, and fn emits every
// series whose value is read from live state, all from one snapshot.
// A family's series are emitted one after another; its HELP and TYPE
// lines are written before the first.
func (r *Registry) Collect(fn func(Emit)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collect = fn
}

// Histogram returns the fixed-bucket histogram named name, creating it
// with the given bucket upper bounds on first use.
func (r *Registry) Histogram(name, help string, labels map[string]string, buckets []float64) *Histogram {
	return r.get(name, help, kindHistogram, labels, buckets).hist
}

// renderLabels renders a deterministic `{k="v",...}` suffix (sorted by
// key) or "" for no labels.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabel inserts one extra label pair into a pre-rendered label
// set (for histogram `le`).
func mergeLabel(rendered, key, val string) string {
	pair := fmt.Sprintf("%s=%q", key, val)
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// writeHeader writes a family's HELP (when set) and TYPE lines.
func writeHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// WritePrometheus renders every family in text exposition format: the
// registered counters and histograms, then the snapshot hook's series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	collect := r.collect
	r.mu.Unlock()

	for _, f := range fams {
		typ := "counter"
		if f.kind == kindHistogram {
			typ = "histogram"
		}
		if err := writeHeader(w, f.name, f.help, typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if f.kind == kindCounter {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(float64(s.ctr.Value()))); err != nil {
					return err
				}
				continue
			}
			h := s.hist
			var cum int64
			for i, bound := range h.bounds {
				cum += h.buckets[i].Load()
				lbl := mergeLabel(s.labels, "le", formatFloat(bound))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl, cum); err != nil {
					return err
				}
			}
			cum += h.buckets[len(h.bounds)].Load()
			lbl := mergeLabel(s.labels, "le", "+Inf")
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatFloat(h.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, cum); err != nil {
				return err
			}
		}
	}
	if collect == nil {
		return nil
	}
	var err error
	last := ""
	collect(func(name, help, typ string, labels map[string]string, v float64) {
		if err != nil {
			return
		}
		if name != last {
			last = name
			if err = writeHeader(w, name, help, typ); err != nil {
				return
			}
		}
		_, err = fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(labels), formatFloat(v))
	})
	return err
}

// formatFloat renders a value the way Prometheus expects: integers
// without a decimal point, everything else in minimal form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
