package main

// The declared metrics. BENCHMARK.json at the repository root repeats
// these lists for the driver; benchmark_test.go keeps the two identical.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEndSpecs are what a user of the service sees and this sandbox
// can repeat. The issue's rule decides the list: a timing that cannot
// hold a bound of 0.10 is not end-to-end. No request timing holds it on
// this host (NOISE.md), so ops_per_s, the latency percentiles and
// cpu_ms_per_op are the per-layer service.* metrics below. setup_s has
// to be here and takes the widest bound the contract allows; a count
// takes three times the widest spread any set of ten runs on ten seeds
// showed, rounded up to a whole percent.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.06},
	{"heap_live_mb", "MiB", "lower", 0.07},
	{"disk_bytes_per_row", "B", "lower", 0.07},
}

// perLayerSpecs are measured only by -trace 1, from outside the
// program: counter deltas on public accessors and bench-side spans
// around calls into public functions. They carry no bound.
var perLayerSpecs = []metricSpec{
	{Name: "service.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "service.query_direct_us", Unit: "us", Better: "lower"},
	{Name: "service.append_direct_us", Unit: "us", Better: "lower"},
	{Name: "service.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "service.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.query_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "service.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.append_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.result_cache_invalidated_per_append", Unit: "count", Better: "lower"},
	{Name: "service.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "service.fragment_us", Unit: "us", Better: "lower"},
	{Name: "service.merge_us_per_op", Unit: "us", Better: "lower"},
	{Name: "service.scatter_tasks_per_op", Unit: "count", Better: "lower"},
	{Name: "service.resp_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "service.rejected_per_kop", Unit: "count", Better: "lower"},
	{Name: "service.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "core.filter_scan_us", Unit: "us", Better: "lower"},
	{Name: "core.rows_scanned_per_op", Unit: "count", Better: "lower"},
	{Name: "core.blocks_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.materialize_us", Unit: "us", Better: "lower"},
	{Name: "core.topk_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_us", Unit: "us", Better: "lower"},
	{Name: "core.segment_loads_per_op", Unit: "count", Better: "lower"},
	{Name: "core.segment_evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "core.segment_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.segment_resident_mb", Unit: "MiB", Better: "lower"},
	{Name: "core.append_us_per_row", Unit: "us", Better: "lower"},
	{Name: "core.columns_extend_us", Unit: "us", Better: "lower"},
	{Name: "core.extend_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.index_build_us", Unit: "us", Better: "lower"},
	{Name: "core.vecindex_extend_us", Unit: "us", Better: "lower"},
	{Name: "core.vecindex_extends_per_append", Unit: "count", Better: "higher"},
	{Name: "core.vecindex_rebuilds_per_append", Unit: "count", Better: "lower"},
	{Name: "core.knn_index_us", Unit: "us", Better: "lower"},
	{Name: "core.knn_brute_us", Unit: "us", Better: "lower"},
	{Name: "kv.pager_reads_per_op", Unit: "count", Better: "lower"},
	{Name: "kv.get_us", Unit: "us", Better: "lower"},
	{Name: "kv.put_us", Unit: "us", Better: "lower"},
	{Name: "kv.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "kv.pages_per_krow", Unit: "count", Better: "lower"},
	{Name: "codec.colseg_decode_us", Unit: "us", Better: "lower"},
	{Name: "codec.colseg_encode_us", Unit: "us", Better: "lower"},
	{Name: "codec.colseg_bytes_per_row", Unit: "B", Better: "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs measured values with the declared units. It panics on a
// value the declaration lacks or a declared metric without a value:
// either would make the result line lie about what BENCHMARK.json says.
func report(specs []metricSpec, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			panic("benchmark: declared metric " + s.Name + " was not measured")
		}
		out[s.Name] = value{v, s.Unit}
	}
	if len(vals) != len(specs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				panic("benchmark: measured metric " + name + " is not declared")
			}
		}
	}
	return out
}
