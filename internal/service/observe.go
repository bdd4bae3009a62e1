package service

// Service-side observability wiring: the metrics registry behind GET
// /metrics, per-query trace plumbing, and the slow-query log behind
// GET /debug/slow. The serving counters live here as registry-backed
// obs.Counters (one atomic add each), which Stats reads back. Every
// other /metrics series is a row of snapshotMetrics, read from one
// Stats snapshot per scrape, so /metrics and /stats derive each value
// once and cannot drift.

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
)

// telemetry bundles the service's observability state: the registry,
// its counter/histogram handles, the slow-query log, and the trace
// sampler.
type telemetry struct {
	reg  *obs.Registry
	slow *obs.SlowLog

	// sampleEvery traces 1-in-N queries when no explicit trace was
	// requested (0 = sampling off); derived from Config.TraceSample.
	sampleEvery int64
	queryCount  atomic.Int64
	traceSeq    atomic.Int64

	// Serving counters (the registry-backed successors of the old raw
	// atomics; Stats() reads them back via Value()).
	admitted, rejected, coalesced *obs.Counter
	completed, failed             *obs.Counter
	appends, appendedRows         *obs.Counter
	scatterQueries, scatterTasks  *obs.Counter
	knnQueries                    *obs.Counter
	traced                        *obs.Counter

	// Fault-tolerance counters: fragments hedged to another replica,
	// fragment attempts retried after an error, and partial (degraded)
	// responses served under a dead shard.
	hedgedFragments *obs.Counter
	fragmentRetries *obs.Counter
	degradedQueries *obs.Counter

	// admissionShed counts appends refused at the append gate; rejected
	// counts queries refused at a full queue. No request counts in both.
	admissionShed *obs.Counter

	// Latency and shape distributions.
	queryDur  *obs.Histogram // full Query wall time (matches client-side)
	appendDur *obs.Histogram
	queueWait *obs.Histogram // admission-queue wait, every executed task
	batchWait *obs.Histogram // batcher submit->launch wait (traced queries)
	fanout    *obs.Histogram // scatter wave width per scattered query
	// fragmentDur records successful scatter fragment attempts.
	fragmentDur *obs.Histogram
}

// slowLogEntries bounds the slow-query ring buffer served at
// /debug/slow.
const slowLogEntries = 64

// newTelemetry builds the registry, registers the counters and
// histograms, and installs the snapshot hook that renders
// snapshotMetrics from one s.Stats() per scrape.
func newTelemetry(s *Service, cfg Config) *telemetry {
	r := obs.NewRegistry()
	t := &telemetry{
		reg:  r,
		slow: obs.NewSlowLog(cfg.SlowQueryThreshold, slowLogEntries),

		admitted:       r.Counter("deeplens_queries_admitted_total", "Queries admitted to the worker queue.", nil),
		rejected:       r.Counter("deeplens_queries_rejected_total", "Queries rejected by admission-queue overflow.", nil),
		coalesced:      r.Counter("deeplens_queries_coalesced_total", "Queries coalesced onto an identical in-flight execution.", nil),
		completed:      r.Counter("deeplens_queries_completed_total", "Queries executed to completion.", nil),
		failed:         r.Counter("deeplens_queries_failed_total", "Queries that failed during execution.", nil),
		appends:        r.Counter("deeplens_appends_total", "Append requests committed.", nil),
		appendedRows:   r.Counter("deeplens_appended_rows_total", "Rows committed through the append path.", nil),
		scatterQueries: r.Counter("deeplens_scatter_queries_total", "Queries executed via scatter-gather.", nil),
		scatterTasks:   r.Counter("deeplens_scatter_tasks_total", "Scatter fragments fanned out (filter + join tasks).", nil),
		knnQueries:     r.Counter("deeplens_knn_queries_total", "kNN queries executed (cold; cache hits excluded).", nil),
		traced:         r.Counter("deeplens_traced_queries_total", "Queries with full span capture (requested or sampled).", nil),

		hedgedFragments: r.Counter("deeplens_hedged_fragments_total", "Scatter fragments hedged to another replica after the latency budget.", nil),
		fragmentRetries: r.Counter("deeplens_fragment_retries_total", "Scatter fragment attempts retried after an error.", nil),
		degradedQueries: r.Counter("deeplens_degraded_queries_total", "Queries answered partially (allow_partial with every replica of a shard down).", nil),

		admissionShed: r.Counter("deeplens_admission_shed_total", "Appends rejected by append-gate saturation.", nil),

		queryDur:    r.Histogram("deeplens_query_duration_seconds", "Query wall time, admission to response.", nil, obs.DefaultLatencyBuckets),
		appendDur:   r.Histogram("deeplens_append_duration_seconds", "Append request wall time.", nil, obs.DefaultLatencyBuckets),
		queueWait:   r.Histogram("deeplens_queue_wait_seconds", "Admission-queue wait before a worker picks the task up.", nil, obs.DefaultLatencyBuckets),
		batchWait:   r.Histogram("deeplens_batch_wait_seconds", "Kernel submit-to-launch wait in the batcher (traced queries only).", nil, obs.DefaultLatencyBuckets),
		fanout:      r.Histogram("deeplens_scatter_fanout", "Scatter wave width (shards) per scattered query.", nil, obs.FanoutBuckets),
		fragmentDur: r.Histogram("deeplens_fragment_duration_seconds", "Scatter fragment attempt wall time (successful attempts).", nil, obs.DefaultLatencyBuckets),
	}
	// A stride past MaxInt64 would convert to a negative int64 that the
	// clamp to 1 turns into tracing every query: such a rate samples
	// nothing.
	if stride := 1.0/cfg.TraceSample + 0.5; cfg.TraceSample > 0 && stride < math.MaxInt64 {
		t.sampleEvery = max(int64(stride), 1)
	}

	r.Collect(func(emit obs.Emit) {
		st := s.Stats()
		for _, m := range snapshotMetrics {
			emit(m.name, m.help, m.typ, m.labels, m.value(&st))
		}
	})
	return t
}

// snapshotMetric is one /metrics series read from the Stats snapshot:
// its family name, HELP text, TYPE, labels, and the value's accessor.
// A family's series are adjacent, and only the first carries the HELP
// text.
type snapshotMetric struct {
	name, help, typ string
	labels          map[string]string
	value           func(*Stats) float64
}

const counter, gauge = "counter", "gauge"

var resultCache, udfCache = map[string]string{"cache": "result"}, map[string]string{"cache": "udf"}

// snapshotMetrics lists every /metrics series that is not a registered
// counter or histogram. One scrape takes one Stats snapshot and renders
// all of them from it.
var snapshotMetrics = []snapshotMetric{
	{"deeplens_uptime_seconds", "Seconds since the service started.", gauge, nil, func(s *Stats) float64 { return s.UptimeSec }},
	{"deeplens_workers", "Executor pool size.", gauge, nil, func(s *Stats) float64 { return float64(s.Workers) }},
	{"deeplens_queue_capacity", "Admission queue capacity.", gauge, nil, func(s *Stats) float64 { return float64(s.QueueCap) }},
	{"deeplens_queue_depth", "Admitted-but-unclaimed tasks.", gauge, nil, func(s *Stats) float64 { return float64(s.QueueDepth) }},
	{"deeplens_in_flight", "Tasks admitted and not yet finished.", gauge, nil, func(s *Stats) float64 { return float64(s.InFlight) }},
	{"deeplens_peak_in_flight", "High-water mark of in-flight tasks.", gauge, nil, func(s *Stats) float64 { return float64(s.PeakInFlight) }},
	{"deeplens_shards", "Backing partition count.", gauge, nil, func(s *Stats) float64 { return float64(s.Shards) }},
	{"deeplens_replicas", "Per-shard replica count.", gauge, nil, func(s *Stats) float64 { return float64(s.Replicas) }},
	{"deeplens_replica_append_errors_total", "Secondary-replica append failures absorbed (each demotes the replica from the read set).", counter, nil,
		func(s *Stats) float64 { return float64(s.ReplicaAppendErrors) }},
	{"deeplens_out_of_sync_replicas", "Replicas currently demoted from the read set.", gauge, nil, func(s *Stats) float64 { return float64(s.OutOfSyncReplicas) }},
	{"deeplens_replica_resyncs_total", "Completed replica repairs (each re-promoted a demoted replica into the read set).", counter, nil,
		func(s *Stats) float64 { return float64(s.ReplicaResyncs) }},
	{"deeplens_resync_rows_total", "Patches streamed to demoted replicas by repairs.", counter, nil, func(s *Stats) float64 { return float64(s.ResyncRows) }},
	{"deeplens_cache_hit_rate", "Cache hits / (hits + misses).", gauge, resultCache, func(s *Stats) float64 { return s.ResultCache.HitRate() }},
	{"deeplens_cache_hit_rate", "", gauge, udfCache, func(s *Stats) float64 { return s.UDFCache.HitRate() }},
	{"deeplens_cache_bytes", "Accounted bytes held.", gauge, resultCache, func(s *Stats) float64 { return float64(s.ResultCache.Bytes) }},
	{"deeplens_cache_bytes", "", gauge, udfCache, func(s *Stats) float64 { return float64(s.UDFCache.Bytes) }},
	{"deeplens_cache_entries", "Live entries.", gauge, resultCache, func(s *Stats) float64 { return float64(s.ResultCache.Entries) }},
	{"deeplens_cache_entries", "", gauge, udfCache, func(s *Stats) float64 { return float64(s.UDFCache.Entries) }},
	{"deeplens_batcher_fusion_factor", "Mean kernels per fused launch (1 = no fusion).", gauge, nil, func(s *Stats) float64 { return s.FusionFactor }},
	{"deeplens_column_extend_reuse_ratio", "Sealed blocks reused / total blocks across incremental column extends.", gauge, nil, func(s *Stats) float64 {
		if s.ExtendTotalBlocks == 0 {
			return 0
		}
		return float64(s.ExtendReuseBlocks) / float64(s.ExtendTotalBlocks)
	}},
	{"deeplens_column_extends_total", "Incremental column-store extensions performed.", counter, nil, func(s *Stats) float64 { return float64(s.ColumnExtends) }},
	{"deeplens_segment_spills_total", "Sealed column segments encoded in memory and handed to the tiered column store's segment cache.", counter, nil,
		func(s *Stats) float64 { return float64(s.SegmentSpills) }},
	{"deeplens_segment_loads_total", "Cold column segments decoded from their in-memory encoding.", counter, nil, func(s *Stats) float64 { return float64(s.SegmentLoads) }},
	{"deeplens_segment_transient_loads_total", "Cold column segment reads served from a kernel's scratch buffer instead of being admitted to the segment cache.", counter, nil,
		func(s *Stats) float64 { return float64(s.SegmentTransientLoads) }},
	{"deeplens_segment_load_faults_total", "Column segments whose encoding failed to decode, rebuilt from the row snapshot.", counter, nil,
		func(s *Stats) float64 { return float64(s.SegmentLoadFaults) }},
	{"deeplens_segment_evictions_total", "Resident column segments dropped under memory-budget pressure.", counter, nil,
		func(s *Stats) float64 { return float64(s.SegmentEvictions) }},
	{"deeplens_segment_resident_bytes", "Bytes of decoded spilled column segments currently resident.", gauge, nil,
		func(s *Stats) float64 { return float64(s.SegmentResidentBytes) }},
	{"deeplens_index_extends_total", "Incremental vector-index extensions performed (only the appended rows indexed).", counter, nil,
		func(s *Stats) float64 { return float64(s.IndexExtends) }},
	{"deeplens_index_rebuilds_total", "Full vector-index builds (first touch or a shape change an extension could not absorb).", counter, nil,
		func(s *Stats) float64 { return float64(s.IndexRebuilds) }},
	{"deeplens_knn_distance_evals_total", "Vector distances evaluated by exact vector-index kNN probes (index) and brute kNN scans (scan).", counter,
		map[string]string{"method": "index"}, func(s *Stats) float64 { return float64(s.KNNDistanceEvalsIndex) }},
	{"deeplens_knn_distance_evals_total", "", counter, map[string]string{"method": "scan"}, func(s *Stats) float64 { return float64(s.KNNDistanceEvalsScan) }},
	{"deeplens_scalar_index_segments_sorted_total", "Sealed column segments sorted for index probes (once each; the order outlives the segment's data).", counter, nil,
		func(s *Stats) float64 { return float64(s.ScalarSegmentsSorted) }},
	{"deeplens_device_kernels_total", "Kernels executed across the service's devices.", counter, nil, func(s *Stats) float64 { return float64(s.DeviceKernels) }},
	{"deeplens_device_launches_total", "Device launches issued (fusion shows as launches < kernels).", counter, nil, func(s *Stats) float64 { return float64(s.DeviceLaunches) }},
	{"deeplens_device_overhead_seconds_total", "Simulated launch + transfer overhead paid.", counter, nil, func(s *Stats) float64 { return s.DeviceOverheadMS / 1e3 }},
	{"deeplens_merge_seconds_total", "Cumulative scatter gather/merge wall time.", counter, nil, func(s *Stats) float64 { return s.MergeTimeMS / 1e3 }},
	{"deeplens_go_heap_live_bytes", "Heap bytes the last Go garbage collection marked live.", gauge, nil, func(s *Stats) float64 { return float64(s.GoHeapLiveBytes) }},
	{"deeplens_go_gc_cycles_total", "Completed Go garbage collection cycles.", counter, nil, func(s *Stats) float64 { return float64(s.GoGCCycles) }},
	{"deeplens_go_gc_cpu_seconds_total", "Estimated CPU time the Go garbage collector spent.", counter, nil, func(s *Stats) float64 { return s.GoGCCPUSeconds }},
}

// goRuntimeStats reads the Go runtime's live heap, completed GC cycles
// and GC CPU time in one runtime/metrics read, which unlike
// runtime.ReadMemStats does not stop the world.
func goRuntimeStats() (heapLive, gcCycles int64, gcCPUSec float64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		heapLive = int64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		gcCycles = int64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		gcCPUSec = s[2].Value.Float64()
	}
	return heapLive, gcCycles, gcCPUSec
}

// startTrace decides whether this query gets full span capture: an
// explicit "trace": true request always does, and the stride sampler
// captures 1-in-N of the rest. Returns nil (all span ops no-op) when
// neither applies.
func (t *telemetry) startTrace(req *Request) *obs.Trace {
	sampled := false
	if t.sampleEvery > 0 {
		sampled = (t.queryCount.Add(1)-1)%t.sampleEvery == 0
	}
	if !req.Trace && !sampled {
		return nil
	}
	t.traced.Inc()
	return obs.NewTrace(fmt.Sprintf("q-%06d", t.traceSeq.Add(1)))
}

// finishQuery records a successful query's terminal telemetry: the
// latency histogram, the slow-query log (with the trace attached when
// one was captured), and — only for explicitly requested traces — a
// caller-private response copy carrying the trace. Cached and
// coalesced responses are shared objects, so the trace is never
// attached in place. The slow-log entry's description and trace copy
// are built only for queries the log keeps.
func (t *telemetry) finishQuery(resp *Response, req *Request, tr *obs.Trace, dur time.Duration) *Response {
	t.queryDur.Observe(dur.Seconds())
	slow := t.slow.Records(dur)
	var data *obs.TraceData
	if slow || req.Trace {
		data = tr.Data() // nil when untraced
	}
	if slow {
		t.slow.Observe(dur, req.describe(), resp.Fingerprint, data)
	}
	if !req.Trace {
		return resp
	}
	out := *resp
	out.TraceID = data.ID
	out.TraceData = data
	return &out
}

// kernelObserver bridges exec's per-kernel callbacks into trace spans
// and the batch-wait histogram. The span's start is reconstructed from
// the reported wait, so it lines up with the submit that incurred it.
type kernelObserver struct {
	t  *telemetry
	tr *obs.Trace
}

func (k kernelObserver) ObserveKernel(op string, wait time.Duration, batch int) {
	k.t.batchWait.Observe(wait.Seconds())
	k.tr.AddSpan("batch-wait", time.Now().Add(-wait), wait, map[string]string{
		"op":    op,
		"batch": fmt.Sprintf("%d", batch),
	})
}

// observedDev returns the device joins should submit kernels through:
// the raw batcher when untraced (zero added cost), or an observing
// wrapper that records one batch-wait span per kernel when traced.
func (s *Service) observedDev(b *exec.Batcher, tr *obs.Trace) exec.Device {
	if tr == nil {
		return b
	}
	return b.Observed(kernelObserver{t: s.tel, tr: tr})
}

// describe renders a compact human-readable form of the request for
// the slow-query log.
func (r *Request) describe() string {
	if r.Infer != nil {
		return fmt.Sprintf("infer %s[%d:%d) %s", r.Infer.Source, r.Infer.From, r.Infer.To, r.Infer.UDF)
	}
	out := r.Collection
	if f := r.Filter; f != nil {
		if f.isRange() {
			lo, hi := f.bounds()
			out += fmt.Sprintf(" filter(%s in [%g,%g))", f.Field, lo, hi)
		} else if v, err := f.value(); err == nil {
			out += fmt.Sprintf(" filter(%s=%v)", f.Field, v)
		}
	}
	if r.SimJoin != nil {
		out += fmt.Sprintf(" simjoin(%s, eps=%g)", r.SimJoin.Field, r.SimJoin.Eps)
	}
	if q := r.KNN; q != nil {
		out += fmt.Sprintf(" knn(%s, k=%d)", q.Field, q.K)
	}
	if r.Distinct {
		out += " distinct"
	}
	if r.OrderBy != "" {
		out += " order-by(" + r.OrderBy + ")"
	}
	if r.Limit > 0 {
		out += fmt.Sprintf(" limit(%d)", r.Limit)
	}
	return out
}
