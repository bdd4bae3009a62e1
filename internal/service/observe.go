package service

// Service-side observability wiring: the metrics registry behind GET
// /metrics, per-query trace plumbing, and the slow-query log behind
// GET /debug/slow. The serving counters live here as registry-backed
// obs.Counters (one atomic add each, same cost as the raw atomics they
// replaced), so the Prometheus surface and the /stats JSON snapshot
// read the same source and cannot drift.

import (
	"fmt"
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

// newTelemetry builds the registry and registers every family. Gauges
// close over the service and read live state at scrape time.
func newTelemetry(s *Service, cfg Config) *telemetry {
	r := obs.NewRegistry()
	t := &telemetry{
		reg:  r,
		slow: obs.NewSlowLog(cfg.SlowQueryThreshold, cfg.SlowLogEntries),

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
	if cfg.TraceSample > 0 {
		n := int64(1.0/cfg.TraceSample + 0.5)
		if n < 1 {
			n = 1
		}
		t.sampleEvery = n
	}

	r.GaugeFunc("deeplens_uptime_seconds", "Seconds since the service started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("deeplens_workers", "Executor pool size.", nil,
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("deeplens_queue_capacity", "Admission queue capacity.", nil,
		func() float64 { return float64(cap(s.queue)) })
	r.GaugeFunc("deeplens_queue_depth", "Admitted-but-unclaimed tasks.", nil,
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("deeplens_in_flight", "Tasks admitted and not yet finished.", nil,
		func() float64 { return float64(s.inFlight.Load()) })
	r.GaugeFunc("deeplens_peak_in_flight", "High-water mark of in-flight tasks.", nil,
		func() float64 { return float64(s.peakInFlight.Load()) })
	r.GaugeFunc("deeplens_shards", "Backing partition count.", nil,
		func() float64 { return float64(s.shards.NumShards()) })
	r.GaugeFunc("deeplens_replicas", "Per-shard replica count.", nil,
		func() float64 { return float64(s.shards.Replicas()) })
	r.CounterFunc("deeplens_replica_append_errors_total", "Secondary-replica append failures absorbed (each demotes the replica from the read set).", nil,
		func() float64 { return float64(s.shards.ReplicaAppendErrors()) })
	r.GaugeFunc("deeplens_out_of_sync_replicas", "Replicas currently demoted from the read set.", nil,
		func() float64 { return float64(len(s.shards.OutOfSyncReplicas())) })
	r.CounterFunc("deeplens_replica_resyncs_total", "Completed replica repairs (each re-promoted a demoted replica into the read set).", nil, func() float64 {
		n, _ := s.shards.ResyncStats()
		return float64(n)
	})
	r.CounterFunc("deeplens_resync_rows_total", "Patches streamed to demoted replicas by repairs.", nil, func() float64 {
		_, rows := s.shards.ResyncStats()
		return float64(rows)
	})

	for _, c := range []struct {
		label string
		cache *Cache
	}{{"result", s.results}, {"udf", s.udfMemo}} {
		cache := c.cache
		lbl := map[string]string{"cache": c.label}
		r.GaugeFunc("deeplens_cache_hit_rate", "Cache hits / (hits + misses).", lbl,
			func() float64 { return cache.Stats().HitRate() })
		r.GaugeFunc("deeplens_cache_bytes", "Accounted bytes held.", lbl,
			func() float64 { return float64(cache.Stats().Bytes) })
		r.GaugeFunc("deeplens_cache_entries", "Live entries.", lbl,
			func() float64 { return float64(cache.Stats().Entries) })
	}

	r.GaugeFunc("deeplens_batcher_fusion_factor", "Mean kernels per fused launch (1 = no fusion).", nil, func() float64 {
		var bs exec.BatcherStats
		for _, b := range s.batchers {
			bs.Add(b.BatcherStats())
		}
		return bs.FusionFactor()
	})
	r.GaugeFunc("deeplens_column_extend_reuse_ratio", "Sealed blocks reused / total blocks across incremental column extends.", nil, func() float64 {
		_, reused, total := s.shards.ColumnExtendStats()
		if total == 0 {
			return 0
		}
		return float64(reused) / float64(total)
	})
	r.CounterFunc("deeplens_column_extends_total", "Incremental column-store extensions performed.", nil, func() float64 {
		n, _, _ := s.shards.ColumnExtendStats()
		return float64(n)
	})
	r.CounterFunc("deeplens_segment_spills_total", "Sealed column segments written through the kv pager by the tiered column store.", nil, func() float64 {
		return float64(s.segCache.Stats().Spills)
	})
	r.CounterFunc("deeplens_segment_loads_total", "Cold column segments read back from disk.", nil, func() float64 {
		return float64(s.segCache.Stats().Loads)
	})
	r.CounterFunc("deeplens_segment_transient_loads_total", "Cold column segment reads served from a kernel's scratch buffer instead of being admitted to the segment cache.", nil, func() float64 {
		return float64(s.segCache.Stats().TransientLoads)
	})
	r.CounterFunc("deeplens_segment_load_faults_total", "Unreadable spilled segments rebuilt from the row snapshot.", nil, func() float64 {
		return float64(s.segCache.Stats().LoadFaults)
	})
	r.CounterFunc("deeplens_segment_evictions_total", "Resident column segments dropped under memory-budget pressure.", nil, func() float64 {
		return float64(s.segCache.Stats().Evictions)
	})
	r.GaugeFunc("deeplens_segment_resident_bytes", "Bytes of spilled column segments currently resident.", nil, func() float64 {
		return float64(s.segCache.Stats().ResidentBytes)
	})
	r.CounterFunc("deeplens_index_extends_total", "Incremental vector-index extensions performed (prefix-certified appends).", nil, func() float64 {
		n, _ := s.shards.IndexExtendStats()
		return float64(n)
	})
	r.CounterFunc("deeplens_index_rebuilds_total", "Full vector-index builds (first touch or a shape change an extension could not absorb).", nil, func() float64 {
		_, n := s.shards.IndexExtendStats()
		return float64(n)
	})
	r.CounterFunc("deeplens_scalar_index_extends_total", "Hash/B-tree index probes that inserted only the rows appended since the index was last current.", nil, func() float64 {
		n, _, _ := s.shards.ScalarIndexStats()
		return float64(n)
	})
	r.CounterFunc("deeplens_scalar_index_rebuilds_total", "Hash/B-tree indexes built in full (first touch, snapshot cache reload, reopen at another version).", nil, func() float64 {
		_, n, _ := s.shards.ScalarIndexStats()
		return float64(n)
	})
	r.GaugeFunc("deeplens_store_pages", "Pages in the page files of every shard and replica store (meta pages included).", nil, func() float64 {
		pages, _ := s.shards.PagerStats()
		return float64(pages)
	})
	r.GaugeFunc("deeplens_pager_cached_pages", "Page buffers resident in the pager caches of every shard and replica store.", nil, func() float64 {
		_, cached := s.shards.PagerStats()
		return float64(cached)
	})
	r.CounterFunc("deeplens_device_kernels_total", "Kernels executed across the device pool.", nil,
		func() float64 { return float64(s.devPool.Stats().Kernels) })
	r.CounterFunc("deeplens_device_launches_total", "Device launches issued (fusion shows as launches < kernels).", nil,
		func() float64 { return float64(s.devPool.Stats().Launches) })
	r.CounterFunc("deeplens_device_overhead_seconds_total", "Simulated launch + transfer overhead paid.", nil,
		func() float64 { return s.devPool.Stats().Overhead.Seconds() })
	r.CounterFunc("deeplens_merge_seconds_total", "Cumulative scatter gather/merge wall time.", nil,
		func() float64 { return float64(s.mergeNS.Load()) / 1e9 })
	return t
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
