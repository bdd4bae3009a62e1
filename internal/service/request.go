package service

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Request is the declarative query the service executes: a pipeline of
// filter -> similarity self-join -> distinct-identity clustering ->
// order/limit over one materialized collection, or an inference sweep
// over a registered frame source. The service compiles it to a physical
// plan through the cost-based optimizer and keys its result cache on the
// request's canonical fingerprint.
type Request struct {
	// Collection names the materialized collection to query. Exactly one
	// of Collection and Infer must be set.
	Collection string `json:"collection,omitempty"`

	Filter  *FilterSpec  `json:"filter,omitempty"`
	SimJoin *SimJoinSpec `json:"simjoin,omitempty"`

	// KNN asks for the k nearest neighbors of a query vector. It is a
	// complete query shape on its own and composes with none of the
	// other stages (filter/simjoin/distinct/order_by/limit).
	KNN *KNNSpec `json:"knn,omitempty"`

	// Distinct clusters the similarity-join pairs into identities and
	// returns the cluster count (q4's dedup step). Requires SimJoin.
	Distinct bool `json:"distinct,omitempty"`

	// OrderBy/Desc/Limit shape row output for plain filter queries.
	OrderBy string `json:"order_by,omitempty"`
	Desc    bool   `json:"desc,omitempty"`
	Limit   int    `json:"limit,omitempty"`

	// Infer runs a UDF sweep over rendered frames instead of a
	// collection query.
	Infer *InferSpec `json:"infer,omitempty"`

	// NoCache bypasses the result cache (the plan still executes and the
	// UDF cache still applies).
	NoCache bool `json:"no_cache,omitempty"`

	// TimeoutMS overrides Config.QueryTimeout for this request (0 keeps
	// the service default). Purely physical — it bounds wall time, never
	// the result — so it is excluded from the fingerprint.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// AllowPartial opts into graceful degradation: when every replica of
	// a shard fails, the gather stage returns the surviving shards'
	// partial result (annotated Degraded + MissingShards) instead of an
	// error. Changes the result contract, so it IS folded into the
	// fingerprint (only when set — default fingerprints are unchanged).
	AllowPartial bool `json:"allow_partial,omitempty"`

	// Trace requests full span capture for this query; the response then
	// carries the trace (TraceID/TraceData). Purely observational: it
	// never changes the result and is excluded from the fingerprint, so
	// traced and untraced runs share one cache entry.
	Trace bool `json:"trace,omitempty"`

	// tr is the span collector for this execution, set by the service
	// when the query is traced (requested or sampled). Nil otherwise —
	// every span call on a nil trace is a no-op.
	tr *obs.Trace
}

// FilterSpec is a selection on one metadata field: either an equality
// against exactly one constant (Str/Int/Float), or a half-open numeric
// range Min <= field < Max (either bound may be omitted for an open
// side). Equality and range are mutually exclusive.
type FilterSpec struct {
	Field string   `json:"field"`
	Str   *string  `json:"str,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	// Min/Max select rows with Min <= field < Max under numeric widening
	// (ints compare as floats, matching core.Pred). The field must
	// be a declared numeric field.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// UseIndex requests the sorted index, for an equality or a range,
	// which binary-searches the sort orders of the sealed column
	// segments, sorted on first use. Purely physical: it never changes
	// the result.
	UseIndex bool `json:"use_index,omitempty"`
}

// isRange reports whether the filter is a range selection.
func (f *FilterSpec) isRange() bool { return f.Min != nil || f.Max != nil }

// bounds resolves the range's half-open interval, open sides widening
// to infinity.
func (f *FilterSpec) bounds() (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if f.Min != nil {
		lo = *f.Min
	}
	if f.Max != nil {
		hi = *f.Max
	}
	return lo, hi
}

func (f *FilterSpec) value() (core.Value, error) {
	set := 0
	var v core.Value
	if f.Str != nil {
		set++
		v = core.StrV(*f.Str)
	}
	if f.Int != nil {
		set++
		v = core.IntV(*f.Int)
	}
	if f.Float != nil {
		set++
		v = core.FloatV(*f.Float)
	}
	if set != 1 {
		return core.Value{}, fmt.Errorf("service: filter on %q needs exactly one of str/int/float", f.Field)
	}
	return v, nil
}

// resolve builds the filter's predicate, validating the constant (or the
// field's numeric kind, for ranges) against the collection schema.
func (f *FilterSpec) resolve(schema core.Schema) (*core.Pred, error) {
	p := &core.Pred{Field: f.Field, Range: f.isRange()}
	if p.Range {
		p.Lo, p.Hi = f.bounds()
		return p, schema.ValidateFilterRange(f.Field)
	}
	var err error
	if p.V, err = f.value(); err != nil {
		return nil, err
	}
	return p, schema.ValidateFilterValue(f.Field, p.V)
}

// SimJoinSpec is a similarity self-join on a vector field: all pairs
// within Eps. The optimizer picks the physical method; UseIndex
// additionally allows probing the maintained exact vector index when the
// join runs over the whole collection.
type SimJoinSpec struct {
	Field string  `json:"field"`
	Eps   float64 `json:"eps"`
	// UseIndex permits the join-index method (the shard-local exact
	// VectorIndex, built on first use and extended on append). Only effective without a preceding filter: an index over the
	// full collection cannot serve a filtered subset. Purely physical.
	UseIndex bool `json:"use_index,omitempty"`
	// MinCluster drops identity clusters smaller than this when Distinct
	// is set (detection-noise suppression; q4 uses 2).
	MinCluster int `json:"min_cluster,omitempty"`
}

// KNNSpec is a k-nearest-neighbor query on a vector field: the K rows
// closest to a query vector under Euclidean distance, ascending, ties
// broken by patch id. The query vector is given inline (Query) or named
// by an existing patch (SourceID, which is excluded from its own
// result). The optimizer picks the physical method — brute-force scan
// or the exact ball-tree index — and both return the same rows, so
// every answer is exact and meets any Exact or RecallFloor asked for.
type KNNSpec struct {
	Field string `json:"field"`
	K     int    `json:"k"`

	// Query is the inline query vector. Exactly one of Query and
	// SourceID must be set.
	Query []float32 `json:"query,omitempty"`
	// SourceID names an existing patch whose Field vector is the query.
	// The source patch never appears in its own neighbor list.
	SourceID uint64 `json:"source_id,omitempty"`

	// Metric names the distance; "l2" (Euclidean) is the only metric
	// served and the empty string means l2.
	Metric string `json:"metric,omitempty"`

	// Exact demands results byte-identical to the brute-force scan,
	// which every kNN answer already is. Accepted for the wire; it
	// changes no plan and is not folded into the fingerprint.
	Exact bool `json:"exact,omitempty"`
	// RecallFloor is the minimum acceptable recall, in [0, 1] (outside
	// it the request is rejected). Every answer has recall 1, so any
	// floor is met; like Exact it is not folded into the fingerprint.
	RecallFloor float64 `json:"recall_floor,omitempty"`
	// UseIndex pins the vector-index path regardless of estimated cost.
	// Purely physical, excluded from the fingerprint.
	UseIndex bool `json:"use_index,omitempty"`
}

// InferSpec sweeps a UDF over frames [From, To) of a registered frame
// source, counting matching outputs: detections with Label (or all), OCR
// words equal to Text (or all), or embeddings computed. Repeated sweeps
// over overlapping ranges hit the UDF materialization cache frame by
// frame.
type InferSpec struct {
	Source string `json:"source"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	UDF    string `json:"udf"` // "detect" | "embed" | "ocr"
	Label  string `json:"label,omitempty"`
	Text   string `json:"text,omitempty"`
}

// clone deep-copies the request: its specs, their pointed-to constants
// and the knn query vector. Strings are immutable and shared.
func (r *Request) clone() *Request {
	c := *r
	if f := r.Filter; f != nil {
		cf := *f
		cf.Str, cf.Int, cf.Float = clonePtr(f.Str), clonePtr(f.Int), clonePtr(f.Float)
		cf.Min, cf.Max = clonePtr(f.Min), clonePtr(f.Max)
		c.Filter = &cf
	}
	c.SimJoin = clonePtr(r.SimJoin)
	if q := r.KNN; q != nil {
		cq := *q
		cq.Query = slices.Clone(q.Query)
		c.KNN = &cq
	}
	c.Infer = clonePtr(r.Infer)
	return &c
}

// clonePtr returns a pointer to a copy of *p, or nil for a nil p.
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// validate checks structural request sanity (schema checks happen at
// plan time against the live catalog).
func (r *Request) validate() error {
	switch {
	case r.Collection == "" && r.Infer == nil:
		return errors.New("service: request needs a collection or an infer spec")
	case r.Collection != "" && r.Infer != nil:
		return errors.New("service: collection query and infer sweep are mutually exclusive")
	}
	if r.Infer != nil {
		i := r.Infer
		if i.Source == "" {
			return errors.New("service: infer needs a source")
		}
		if i.To <= i.From || i.From < 0 {
			return fmt.Errorf("service: infer frame range [%d, %d) is empty", i.From, i.To)
		}
		switch i.UDF {
		case "detect", "embed", "ocr":
		default:
			return fmt.Errorf("service: unknown UDF %q (want detect, embed or ocr)", i.UDF)
		}
		return nil
	}
	if q := r.KNN; q != nil {
		if r.Filter != nil || r.SimJoin != nil || r.Distinct || r.OrderBy != "" || r.Limit != 0 {
			return errors.New("service: knn composes with none of filter/simjoin/distinct/order_by/limit")
		}
		if q.Field == "" {
			return errors.New("service: knn needs a field")
		}
		if q.K < 1 {
			return fmt.Errorf("service: knn k must be >= 1, got %d", q.K)
		}
		if q.K > maxRows {
			return fmt.Errorf("service: knn k %d exceeds the row cap %d", q.K, maxRows)
		}
		if (len(q.Query) > 0) == (q.SourceID != 0) {
			return errors.New("service: knn needs exactly one of query and source_id")
		}
		for _, x := range q.Query {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return fmt.Errorf("service: knn query vector on %q has non-finite component", q.Field)
			}
		}
		switch q.Metric {
		case "", "l2":
		default:
			return fmt.Errorf("service: knn metric %q unsupported (only l2)", q.Metric)
		}
		if q.RecallFloor < 0 || q.RecallFloor > 1 || math.IsNaN(q.RecallFloor) {
			return fmt.Errorf("service: knn recall_floor %g outside [0, 1]", q.RecallFloor)
		}
	}
	if r.Distinct && r.SimJoin == nil {
		return errors.New("service: distinct requires a simjoin")
	}
	if r.SimJoin != nil && r.SimJoin.Eps <= 0 {
		return errors.New("service: simjoin eps must be positive")
	}
	if f := r.Filter; f != nil {
		if f.isRange() {
			if f.Str != nil || f.Int != nil || f.Float != nil {
				return fmt.Errorf("service: filter on %q mixes equality and range bounds", f.Field)
			}
			if f.Min != nil && f.Max != nil && *f.Min >= *f.Max {
				return fmt.Errorf("service: filter on %q has empty range [%g, %g)", f.Field, *f.Min, *f.Max)
			}
			if (f.Min != nil && math.IsNaN(*f.Min)) || (f.Max != nil && math.IsNaN(*f.Max)) {
				return fmt.Errorf("service: filter on %q has NaN bound", f.Field)
			}
		} else if _, err := f.value(); err != nil {
			return err
		}
	}
	if r.Limit < 0 {
		return errors.New("service: negative limit")
	}
	if r.TimeoutMS < 0 {
		return errors.New("service: negative timeout_ms")
	}
	return nil
}

// appendKey builds the request's result-cache key in buf's storage. The
// fingerprint canonicalizes the request's *logical* content plus the
// dataset version. Physical knobs (UseIndex) are deliberately excluded:
// all physical plans compute the same result, so they share one cache
// entry. Its tokens are appended to buf, hashed, and overwritten by the
// key "q:<name>:<hex digest>", which embeds the collection/source name
// in clear so prefix invalidation can purge per-dataset entries. A buf
// with room for the tokens allocates nothing.
func (r *Request) appendKey(buf []byte, version uint64, modelSeed int64) []byte {
	if r.Infer != nil {
		i := r.Infer
		f := core.StartFingerprint(buf, "infer").
			Str("source", i.Source).
			Int("from", int64(i.From)).
			Int("to", int64(i.To)).
			Str("udf", i.UDF).
			Str("label", i.Label).
			Str("text", i.Text).
			Int("seed", modelSeed).
			U64(version)
		return cacheKey(f, i.Source)
	}
	f := core.StartFingerprint(buf, "query").Col(r.Collection, version)
	if q := r.KNN; q != nil {
		// All logical knn content: the field, k, metric (canonicalized),
		// and the query vector or source patch. Exact, RecallFloor and
		// UseIndex change no answer (every plan returns the brute scan's
		// rows), so none of them splits the key.
		metric := q.Metric
		if metric == "" {
			metric = "l2"
		}
		f = f.Str("knn.field", q.Field).
			Int("knn.k", int64(q.K)).
			Str("knn.metric", metric)
		if len(q.Query) > 0 {
			f = f.Value("knn.query", core.VecV(q.Query))
		} else {
			f = f.Int("knn.source", int64(q.SourceID))
		}
		if r.AllowPartial {
			f = f.Int("allow_partial", 1)
		}
		return cacheKey(f, r.Collection)
	}
	if r.Filter != nil {
		f = f.Str("filter.field", r.Filter.Field)
		if r.Filter.isRange() {
			// Named tokens keep an absent bound distinct from any set one.
			if r.Filter.Min != nil {
				f = f.Float("filter.min", *r.Filter.Min)
			}
			if r.Filter.Max != nil {
				f = f.Float("filter.max", *r.Filter.Max)
			}
		} else {
			v, _ := r.Filter.value()
			f = f.Value("filter.eq", v)
		}
	}
	// Canonicalize before folding the output shape: similarity-join (and
	// distinct) requests return before the order/limit stage, so OrderBy/
	// Desc/Limit never influence their result. Folding them anyway would
	// fragment the cache — identical answers under distinct keys.
	orderBy, desc, limit := r.OrderBy, r.Desc, r.Limit
	if r.SimJoin != nil {
		orderBy, desc, limit = "", false, 0
		f = f.Str("sim.field", r.SimJoin.Field).
			Float("sim.eps", r.SimJoin.Eps).
			Int("sim.mincluster", int64(r.SimJoin.MinCluster))
	}
	if r.Distinct {
		f = f.Int("distinct", 1)
	}
	if r.AllowPartial {
		// A partial-tolerant request may legitimately return a different
		// (degraded) answer; never share a cache entry with strict ones.
		f = f.Int("allow_partial", 1)
	}
	if orderBy != "" {
		d := int64(0)
		if desc {
			d = 1
		}
		f = f.Str("order", orderBy).Int("desc", d)
	}
	if limit > 0 {
		f = f.Int("limit", int64(limit))
	}
	return cacheKey(f, r.Collection)
}

// cacheKey sums f and overwrites its tokens with the key
// "q:<name>:<hex digest>".
func cacheKey(f core.Fingerprinter, name string) []byte {
	sum := f.HexSum()
	key := append(f.Buffer()[:0], "q:"...)
	key = append(key, name...)
	key = append(key, ':')
	return append(key, sum[:]...)
}

// Response is one query's answer plus its serving metadata.
type Response struct {
	// Value is the scalar answer: row count, pair count, cluster count,
	// or matching-inference count, depending on the request shape.
	Value int `json:"value"`
	// Rows carries up to Limit result rows for plain filter queries, and
	// the neighbors of a kNN query.
	Rows []Row `json:"rows,omitempty"`

	Plan        string `json:"plan"`
	Fingerprint string `json:"fingerprint"`
	CacheHit    bool   `json:"cache_hit"`

	// EstCostSec is the optimizer's cold estimate for the chosen plan;
	// CacheAwareCostSec folds in the result cache's observed hit rate
	// (core.CacheAwareCost), so a hot plan reports near-zero.
	EstCostSec        float64 `json:"est_cost_sec"`
	CacheAwareCostSec float64 `json:"cache_aware_cost_sec"`

	DurationMS float64 `json:"duration_ms"`

	// Degraded marks a partial result: every replica of the shards in
	// MissingShards failed, the request allowed partial results, and
	// Value/Rows cover only the surviving shards. Degraded responses are
	// never cached.
	Degraded      bool  `json:"degraded,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`

	// TraceID/TraceData carry the per-query trace when the request asked
	// for one ("trace": true). Always attached to a caller-private copy:
	// cached and coalesced responses are shared objects and are never
	// mutated.
	TraceID   string         `json:"trace_id,omitempty"`
	TraceData *obs.TraceData `json:"trace,omitempty"`

	// wire is a cacheable result's encoded head, shared by pointer with
	// every copy of the response (nil for uncacheable ones).
	wire *wireMemo
}

// Row is one result row: a handle on the committed row it projects, a
// position in its replica's row table, plus the neighbor's distance in
// a kNN answer. Its fields, on the wire and through Get, are the row's
// scalar metadata, its identity and lineage columns _id, _source and
// _frame, and _dist for a kNN neighbor; vector and rect values are left
// out. A metadata field shadows the identity and lineage column of its
// name, and _dist shadows metadata.
type Row struct {
	tab  *core.RowTable
	dist float64
	pos  int32
	knn  bool
}

// rowBytes is a Row's footprint: the table pointer, the distance, the
// position and the kNN flag.
const rowBytes = 24

// view fills p with the row (see core.RowTable.View).
func (r Row) view(p *core.Patch) { r.tab.View(int(r.pos), p) }

// Get returns the row's field: _id and _frame as uint64, ints as int64,
// floats as float64 and strings as string. ok is false for a field the
// row does not carry.
func (r Row) Get(field string) (any, bool) {
	var p core.Patch
	r.view(&p)
	v, u, ok := r.value(&p, field)
	switch {
	case !ok:
		return nil, false
	case v.Kind == core.KindInt:
		return v.Int(), true
	case v.Kind == core.KindFloat:
		return v.Float(), true
	case v.Kind == core.KindStr:
		return v.Str(), true
	}
	return u, true
}

// value resolves field of p, the row's view: a scalar v, or, when v has
// no kind, the unsigned u of _id or _frame.
func (r Row) value(p *core.Patch, field string) (v core.Value, u uint64, ok bool) {
	if r.knn && field == "_dist" {
		return core.FloatV(r.dist), 0, true
	}
	if mv, found := p.Get(field); found && wireKind(mv.Kind) {
		return mv, 0, true
	}
	switch field {
	case "_id":
		return core.Value{}, uint64(p.ID), true
	case "_frame":
		return core.Value{}, p.Ref.Frame, true
	case "_source":
		return core.StrV(p.Ref.Source), 0, true
	}
	return core.Value{}, 0, false
}

// wireKind reports whether metadata of kind k is sent.
func wireKind(k core.ValueKind) bool {
	return k == core.KindInt || k == core.KindFloat || k == core.KindStr
}

// appendKeys appends the field names of p, the row's view, to keys,
// sorted bytewise.
func (r Row) appendKeys(p *core.Patch, keys []string) []string {
	keys = append(keys, "_frame", "_id", "_source")
	if r.knn {
		keys = append(keys, "_dist")
	}
	for k, v := range p.Range {
		switch {
		case !wireKind(v.Kind), k == "_frame", k == "_id", k == "_source", r.knn && k == "_dist":
			continue
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// MarshalJSON encodes the row as the object /query sends, indented for
// its place in the rows array (encoding/json re-formats it to its own
// indentation).
func (r Row) MarshalJSON() ([]byte, error) {
	var keys []string
	return r.appendJSON(nil, &keys)
}

// wireMemo is a cached result's head, encoded at most once — on its
// first HTTP delivery as a hit — and shared by every coalesced waiter,
// traced hit and later hit. The delivery that stored the result encodes
// its head into its pooled wireBuf instead, so a result the next append
// drops unread never copies its head. Building the memo charges the
// head's bytes to the result-cache entry holding entry.
type wireMemo struct {
	once sync.Once
	head []byte // the head's exact-size bytes; nil when encoding failed
	err  error

	cache *Cache
	key   string
	entry *Response
}

// headFor returns r's memoized head, encoding it on first use.
func (m *wireMemo) headFor(r *Response) ([]byte, error) {
	m.once.Do(func() {
		wb := wireBufs.Get()
		defer wireBufs.Put(wb)
		if wb.b, m.err = r.appendHead(wb.b[:0], &wb.keys); m.err == nil {
			m.head = slices.Clone(wb.b)
			m.cache.Charge(m.key, m.entry, int64(len(m.head)))
		}
	})
	return m.head, m.err
}

// sizeBytes is the response's cache footprint: its fixed fields and one
// handle per row. The rows are resident in their collection's row
// table; the encoded head is charged when it is built.
func (r *Response) sizeBytes() int64 {
	return 160 + int64(len(r.Plan)) + int64(len(r.Fingerprint)) + rowBytes*int64(len(r.Rows))
}
