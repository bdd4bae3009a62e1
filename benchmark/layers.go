package main

// The traced run: round 1's op list replayed three ways, each op
// wrapped in a bench-side span, with counter deltas taken around each
// pass. Pass A goes through ServeHTTP, pass B through Service.Query /
// Service.Append, pass C calls the core functions a request of that
// shape reaches. Self time of the service is B minus C's children, of
// the handler A minus B. Nothing inside the program is instrumented.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/service"
)

// span is one timed interval; Parent indexes the enclosing span in the
// same file (-1 for an op's root) and the spans of one op of one pass
// share OpID.
type span struct {
	Workload string `json:"workload"`
	Pass     string `json:"pass"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	OpID     int    `json:"op_id"`
}

type tracer struct {
	t0       time.Time
	workload string
	pass     string
	spans    []span
}

// begin opens a span and returns its index. A nil tracer records
// nothing, which is how the untraced rounds run.
func (t *tracer) begin(name string, parent, opID int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Workload: t.workload, Pass: t.pass, Name: name, Parent: parent, OpID: opID, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	t.spans[i].EndNS = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].EndNS - t.spans[i].StartNS)
}

// counters is one reading of every public counter the layers expose.
type counters struct {
	st                   service.Stats
	queueSum, fragSum    float64
	queueCount, fragSeen int64
	pagerReads           int64
}

func (in *instance) readCounters() counters {
	reg := in.svc.Metrics()
	queue := reg.Histogram("deeplens_queue_wait_seconds", "", nil, nil)
	frag := reg.Histogram("deeplens_fragment_duration_seconds", "", nil, nil)
	c := counters{
		st:       in.svc.Stats(),
		queueSum: queue.Sum(), queueCount: queue.Count(),
		fragSum: frag.Sum(), fragSeen: frag.Count(),
	}
	for _, db := range in.b.dbs() {
		c.pagerReads += db.Store().Pager().Reads()
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traced runs the three passes on a measured instance and returns the
// per-layer metrics. m is the untraced run the overhead is judged by.
func (c *runConfig) traced(p *plan, in *instance, m *measured, tr *tracer) (map[string]float64, error) {
	ops := p.rounds[0]
	out := make(map[string]float64, len(perLayerSpecs))
	timings := m.timings()
	for name, v := range timings {
		out[name] = v
	}
	out["core.append_us_per_row"] = us(in.fixtureLoad) / float64(len(p.fixture))
	nAppends := 0
	for _, o := range ops {
		if o.kind == opAppend {
			nAppends++
		}
	}
	nOps := float64(len(ops))

	// Pass A: through the handler, like the measured rounds.
	tr.workload, tr.pass = c.w.name, "A"
	before := in.readCounters()
	runtime.GC()
	resA := newClient(in.h).drive(ops, c.keep, tr)
	after := in.readCounters()
	in.verify(resA)
	m.count(resA)
	rc0, rc1 := before.st.ResultCache, after.st.ResultCache
	out["service.result_cache_hit_ratio"] = ratio(float64(rc1.Hits-rc0.Hits), float64(rc1.Hits-rc0.Hits+rc1.Misses-rc0.Misses))
	out["service.result_cache_invalidated_per_append"] = ratio(float64(rc1.Invalidated-rc0.Invalidated), float64(nAppends))
	out["service.queue_wait_us"] = 1e6 * ratio(after.queueSum-before.queueSum, float64(after.queueCount-before.queueCount))
	out["service.fragment_us"] = 1e6 * ratio(after.fragSum-before.fragSum, float64(after.fragSeen-before.fragSeen))
	out["service.merge_us_per_op"] = 1e3 * (after.st.MergeTimeMS - before.st.MergeTimeMS) / nOps
	out["service.scatter_tasks_per_op"] = float64(after.st.ScatterTasks-before.st.ScatterTasks) / nOps
	out["service.resp_bytes_per_op"] = float64(resA.respBytes) / nOps
	out["service.trace_overhead_pct"] = 100 * (1 - float64(len(ops))/resA.wall.Seconds()/timings["service.ops_per_s"])
	out["core.segment_loads_per_op"] = float64(after.st.SegmentLoads-before.st.SegmentLoads) / nOps
	out["core.segment_evictions_per_op"] = float64(after.st.SegmentEvictions-before.st.SegmentEvictions) / nOps
	out["core.segment_resident_mb"] = float64(after.st.SegmentResidentBytes) / (1 << 20)
	out["core.vecindex_extends_per_append"] = ratio(float64(after.st.IndexExtends-before.st.IndexExtends), float64(nAppends))
	out["core.vecindex_rebuilds_per_append"] = ratio(float64(after.st.IndexRebuilds-before.st.IndexRebuilds), float64(nAppends))
	out["kv.pager_reads_per_op"] = float64(after.pagerReads-before.pagerReads) / nOps

	// Pass B: the same ops as direct service calls, no HTTP layer.
	tr.pass = "B"
	if !c.w.cached {
		in.svc.FlushCaches()
	}
	runtime.GC()
	resB := c.passDirect(in, ops, tr)
	in.verify(resB)
	m.count(resB)
	directQuery := median(resB.latencies(opQuery)) * 1e3
	out["service.query_direct_us"] = directQuery
	out["service.append_direct_us"] = median(resB.latencies(opAppend)) * 1e3
	out["service.http_overhead_us"] = median(resA.latencies(opQuery))*1e3 - directQuery
	end := in.svc.Stats()
	out["service.rejected_per_kop"] = 1e3 * float64(end.Rejected+end.AdmissionShed) / float64(m.attempted)

	// Pass C: the layer functions under each request shape.
	tr.pass = "C"
	runtime.GC()
	if err := c.passLayers(in, ops, tr, out); err != nil {
		return nil, err
	}
	if err := in.probeKV(p.fixture[0], out); err != nil {
		return nil, err
	}
	probeCodec(p.fixture, out)
	return out, nil
}

// passDirect calls Service.Query / Service.Append with the decoded
// request the handler would have produced. Kept responses are
// re-encoded outside the timed call so the same oracle checks them.
func (c *runConfig) passDirect(in *instance, ops []*op, tr *tracer) *passResult {
	ctx := context.Background()
	res := &passResult{ops: ops, lat: make([]time.Duration, len(ops))}
	t0 := time.Now()
	for i, o := range ops {
		var resp any
		var err error
		var sp int
		if o.kind == opAppend {
			sp = tr.begin("service.Append", -1, i)
			resp, err = in.svc.Append(ctx, o.app)
		} else {
			sp = tr.begin("service.Query", -1, i)
			resp, err = in.svc.Query(ctx, o.query)
		}
		d := tr.end(sp)
		if err != nil {
			res.fail(i, fmt.Errorf("direct %s op %d (%s): %w", o.path(), i, o.shape, err))
			continue
		}
		res.lat[i] = d
		if o.kind == opAppend || c.keep(i) {
			body, err := json.Marshal(resp)
			if err != nil {
				res.fail(i, err)
				continue
			}
			res.kept = append(res.kept, kept{i, o, body})
		}
	}
	res.wall = time.Since(t0)
	return res
}

// layerProbe is pass C's state: it calls, for every op, the core
// functions a request of that shape reaches in the service, each under
// a child span of the op's root span.
type layerProbe struct {
	tr   *tracer
	cols []*core.Collection
	dbs  []*core.DB

	sm                map[string][]float64 // per-op layer time in us by span name, over all ops
	scan              core.ScanStats       // summed over every column filter
	filterOps         int
	reused, total     int  // column-extend blocks
	vectorIndexBehind bool // an append since the last knn: the next one pays the extend

	root, opID int                      // the op being probed
	perOp      map[string]time.Duration // its time per layer; shards run one after another
}

// timed runs fn under a child span of the current op.
func (lp *layerProbe) timed(name string, fn func()) {
	sp := lp.tr.begin(name, lp.root, lp.opID)
	fn()
	lp.perOp[name] += lp.tr.end(sp)
}

// passLayers probes every op and reduces the spans: medians over the
// ops that have each span become the core.* timings, the scan
// statistics become the core.* ratios.
func (c *runConfig) passLayers(in *instance, ops []*op, tr *tracer, out map[string]float64) error {
	cols, err := in.b.cols()
	if err != nil {
		return err
	}
	lp := &layerProbe{tr: tr, cols: cols, dbs: in.b.dbs(), sm: map[string][]float64{}}
	for i, o := range ops {
		lp.root, lp.opID, lp.perOp = tr.begin("layers."+o.shape, -1, i), i, map[string]time.Duration{}
		switch {
		case o.kind == opAppend:
			err = lp.appendRows(o.rows)
		case o.query.KNN != nil:
			err = lp.knn(o.query.KNN)
		case o.query.Filter.UseIndex:
			err = lp.indexBuild(o.query.Filter)
		default:
			err = lp.columnFilter(&o.query)
		}
		tr.end(lp.root)
		if err != nil {
			return fmt.Errorf("layer probe of op %d (%s): %w", i, o.shape, err)
		}
		for name, d := range lp.perOp {
			lp.sm[name] = append(lp.sm[name], us(d))
		}
	}
	for metric, spanName := range map[string]string{
		"core.filter_scan_us":     "core.filter_scan",
		"core.materialize_us":     "core.materialize",
		"core.topk_us":            "core.topk",
		"core.plan_us":            "core.plan",
		"core.columns_extend_us":  "core.columns_extend",
		"core.index_build_us":     "core.index_build",
		"core.vecindex_extend_us": "core.vecindex_extend",
		"core.knn_index_us":       "core.knn_index",
		"core.knn_brute_us":       "core.knn_brute",
	} {
		out[metric] = median(lp.sm[spanName])
	}
	out["core.rows_scanned_per_op"] = ratio(float64(lp.scan.RowsScanned), float64(lp.filterOps))
	out["core.blocks_pruned_ratio"] = ratio(float64(lp.scan.Pruned), float64(lp.scan.Blocks))
	out["core.segment_miss_ratio"] = ratio(float64(lp.scan.SegLoads), float64(lp.scan.Blocks-lp.scan.Pruned))
	out["core.extend_reuse_ratio"] = ratio(float64(lp.reused), float64(lp.total))
	return nil
}

// appendRows appends the batch directly and pays the column extend the
// next filter would. Only the unsharded ingest workload appends, so the
// rows go to the one collection there is.
func (lp *layerProbe) appendRows(rows []row) error {
	col := lp.cols[0]
	lp.vectorIndexBehind = true
	var err error
	lp.timed("core.append", func() {
		for _, r := range rows {
			if err = col.Append(r.patch()); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	lp.timed("core.columns_extend", func() {
		var info core.ColumnsInfo
		_, info, err = col.ColumnsWithInfo()
		lp.reused += info.Extend.ReusedBlocks
		lp.total += info.Extend.TotalBlocks
	})
	return err
}

// knn plans the probe, brings the exact vector index up to the
// snapshot, and answers the query through the index and by brute force.
func (lp *layerProbe) knn(q *service.KNNSpec) error {
	col := lp.cols[0]
	snap, ver, err := col.Snapshot()
	if err != nil {
		return err
	}
	lp.timed("core.plan", func() {
		lp.dbs[0].Cost().PlanKNN(len(snap), len(q.Query), q.K, q.Exact, q.RecallFloor, q.UseIndex)
	})
	name := "core.vecindex_at"
	if lp.vectorIndexBehind {
		name, lp.vectorIndexBehind = "core.vecindex_extend", false
	}
	var vi *core.VectorIndex
	lp.timed(name, func() { vi, err = col.VectorIndexAt(snap, ver, q.Field, core.VecExact) })
	if err != nil {
		return err
	}
	lp.timed("core.knn_index", func() { vi.KNN(q.Query, q.K) })
	lp.timed("core.knn_brute", func() { core.BruteKNN(snap, q.Field, q.Query, q.K) })
	return nil
}

// indexBuild rebuilds the index a use_index filter needs at the live
// version: hash for equality, B-tree for a range.
func (lp *layerProbe) indexBuild(f *service.FilterSpec) error {
	kind := core.IdxHash
	if f.Min != nil {
		kind = core.IdxBTree
	}
	var err error
	lp.timed("core.index_build", func() { _, err = lp.dbs[0].BuildIndex(lp.cols[0], f.Field, kind) })
	return err
}

// columnFilter runs the request's predicate on every shard's column
// store, then what the service does with the selection: materialize all
// of it (before counting, clipping or ordering) and, for order_by,
// top-k and materialize the top.
func (lp *layerProbe) columnFilter(req *service.Request) error {
	f := req.Filter
	lp.filterOps++
	for s, col := range lp.cols {
		cs, err := col.Columns()
		if err != nil {
			return err
		}
		var sel []int32
		var st core.ScanStats
		var ok bool
		if f.Min != nil {
			lp.timed("core.filter_scan", func() { sel, st, ok = cs.FilterRangeStats(f.Field, *f.Min, *f.Max) })
		} else {
			v := filterValue(f)
			lp.timed("core.plan", func() { _, err = lp.dbs[s].PlanFilter(col, f.Field, v) })
			if err != nil {
				return err
			}
			lp.timed("core.filter_scan", func() { sel, st, ok = cs.FilterEqStats(f.Field, v) })
		}
		if !ok {
			return fmt.Errorf("field %q has no column", f.Field)
		}
		lp.scan.Add(st)
		lp.timed("core.materialize", func() { cs.Materialize(sel) })
		if req.OrderBy != "" {
			lp.timed("core.topk", func() {
				top, _ := cs.TopK(sel, req.OrderBy, req.Desc, req.Limit)
				cs.Materialize(top)
			})
		}
	}
	return nil
}

func filterValue(f *service.FilterSpec) core.Value {
	switch {
	case f.Str != nil:
		return core.StrV(*f.Str)
	case f.Int != nil:
		return core.IntV(*f.Int)
	}
	return core.FloatV(*f.Float)
}

const probeReps = 2000

// probeKV times Bucket.Put / Bucket.Get of a patch-sized value in a
// scratch bucket of shard 0's store, then the final flush, and counts
// the pages the run left behind.
func (in *instance) probeKV(r row, out map[string]float64) error {
	db := in.b.dbs()[0]
	bucket, err := db.Store().Bucket("bench.scratch")
	if err != nil {
		return err
	}
	val := r.patch().Marshal()
	put, get := make([]float64, probeReps), make([]float64, probeReps)
	for i := range put {
		t0 := time.Now()
		if err := bucket.Put(kv.U64Key(uint64(i)), val); err != nil {
			return err
		}
		put[i] = us(time.Since(t0))
	}
	for i := range get {
		t0 := time.Now()
		if _, err := bucket.Get(kv.U64Key(uint64(i))); err != nil {
			return err
		}
		get[i] = us(time.Since(t0))
	}
	out["kv.put_us"], out["kv.get_us"] = median(put), median(get)

	t0 := time.Now()
	if err := in.b.flush(); err != nil {
		return err
	}
	out["kv.flush_ms"] = ms(time.Since(t0))
	cols, err := in.b.cols()
	if err != nil {
		return err
	}
	var pages uint64
	var rows int
	for s, d := range in.b.dbs() {
		pages += d.Store().Pager().NumPages()
		rows += cols[s].Len()
	}
	out["kv.pages_per_krow"] = 1e3 * float64(pages) / float64(rows)
	return nil
}

// probeCodec encodes and decodes one 1024-row segment of each fixture
// column (rank ints, score floats, label dictionary codes).
func probeCodec(rows []row, out map[string]float64) {
	n := core.ColumnBlockSize
	if n > len(rows) {
		n = len(rows)
	}
	ints, floats, codes := make([]int64, n), make([]float64, n), make([]uint32, n)
	dict := map[string]uint32{}
	for i, r := range rows[:n] {
		ints[i], floats[i] = r.rank, r.score
		if _, ok := dict[r.label]; !ok {
			dict[r.label] = uint32(len(dict))
		}
		codes[i] = dict[r.label]
	}
	const reps = 200
	enc, dec := make([]float64, reps), make([]float64, reps)
	var bytes int
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		bi, bf, bc := codec.EncodeInts(ints), codec.EncodeFloats(floats), codec.EncodeCodes(codes)
		t1 := time.Now()
		_, e1 := codec.DecodeInts(bi)
		_, e2 := codec.DecodeFloats(bf)
		_, e3 := codec.DecodeCodes(bc)
		t2 := time.Now()
		if e1 != nil || e2 != nil || e3 != nil {
			panic("benchmark: codec cannot decode its own segment") // a codec bug, not an input
		}
		enc[i], dec[i] = us(t1.Sub(t0)), us(t2.Sub(t1))
		bytes = len(bi) + len(bf) + len(bc)
	}
	out["codec.colseg_encode_us"], out["codec.colseg_decode_us"] = median(enc), median(dec)
	out["codec.colseg_bytes_per_row"] = float64(bytes) / float64(n)
}
