package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. BENCHMARK.json at the repo
// root is generated from these tables (-emit-benchmark-json), so a metric
// exists in exactly one place.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the gated metrics: what a user of the engine sees. Every
// workload reports every one of them, and none can read zero, so the
// write-side metrics that only some workloads have (insert_p95_ms,
// inserts_per_s, merge_ms) and failed_frac (which must be zero) are layer
// metrics instead. Bounds are the share of the parent's median a metric may
// worsen by. The issue asked for 10-15 % on the timings; on the shared
// 2-core reference host ten 30 s runs of one build spread by 2-8 % (IQR over
// median) when it is quiet, its speed drifts by 10-15 % over minutes and it
// has spells that are 20-35 % slower, so the timings carry the widest bound
// the contract allows. live_heap_mb repeats within 1 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer lists the traced run's metrics, prefixed by the module they
// measure. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// Write side and failures, demoted from the end-to-end list (see above).
	{Name: "failed_frac", Unit: "frac", Better: "lower"},
	{Name: "insert_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "inserts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "merge_ms", Unit: "ms", Better: "lower"},

	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.parse_count", Unit: "count", Better: "lower"},

	{Name: "core.hit_frac", Unit: "frac", Better: "higher"},
	{Name: "core.rebuilt_frac", Unit: "frac", Better: "lower"},
	{Name: "core.bypassed_frac", Unit: "frac", Better: "lower"},
	{Name: "core.admitted_count", Unit: "count", Better: "lower"},
	{Name: "core.evicted_count", Unit: "count", Better: "lower"},
	{Name: "core.entries", Unit: "count", Better: "higher"},
	{Name: "core.cache_bytes", Unit: "B", Better: "lower"},
	{Name: "core.lookup_us", Unit: "us", Better: "lower"},
	{Name: "core.main_comp_us", Unit: "us", Better: "lower"},
	{Name: "core.main_comp_rows", Unit: "count", Better: "lower"},
	{Name: "core.delta_comp_ms", Unit: "ms", Better: "lower"},
	{Name: "core.delta_tuples", Unit: "count", Better: "lower"},
	{Name: "core.build_entry_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rebuild_entry_ms", Unit: "ms", Better: "lower"},
	{Name: "core.overhead_us", Unit: "us", Better: "lower"},

	{Name: "md.combo_pruned_us", Unit: "us", Better: "lower"},
	{Name: "md.pruned_frac", Unit: "frac", Better: "higher"},
	{Name: "md.pushdown_us", Unit: "us", Better: "lower"},
	{Name: "md.pushdown_count", Unit: "count", Better: "higher"},
	{Name: "md.fill_tids_us", Unit: "us", Better: "lower"},

	{Name: "query.subjoins", Unit: "count", Better: "lower"},
	{Name: "query.subjoins_max", Unit: "count", Better: "lower"},
	{Name: "query.executed", Unit: "count", Better: "lower"},
	{Name: "query.pruned_empty", Unit: "count", Better: "higher"},
	{Name: "query.pruned_md", Unit: "count", Better: "higher"},
	{Name: "query.pruned_scan", Unit: "count", Better: "higher"},
	{Name: "query.rows_scanned", Unit: "count", Better: "lower"},
	{Name: "query.tuples_joined", Unit: "count", Better: "lower"},
	{Name: "query.scan_vec_frac", Unit: "frac", Better: "higher"},
	{Name: "query.uncached_ms", Unit: "ms", Better: "lower"},
	{Name: "query.subjoin_ms", Unit: "ms", Better: "lower"},
	{Name: "query.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "query.join_agg_ms", Unit: "ms", Better: "lower"},
	{Name: "query.kernel_frac", Unit: "frac", Better: "lower"},
	{Name: "query.agg_add_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "query.agg_merge_us", Unit: "us", Better: "lower"},
	{Name: "query.rows_us", Unit: "us", Better: "lower"},
	{Name: "query.parallel_efficiency", Unit: "frac", Better: "higher"},
	{Name: "query.worker_queue_us", Unit: "us", Better: "lower"},

	{Name: "txn.visibility_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "txn.pin_us", Unit: "us", Better: "lower"},
	{Name: "txn.commit_us", Unit: "us", Better: "lower"},

	{Name: "column.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "column.main_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "column.delta_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "column.tid_overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "expr.bind_us", Unit: "us", Better: "lower"},
	{Name: "expr.eval_ns_per_row", Unit: "ns", Better: "lower"},

	{Name: "table.insert_us", Unit: "us", Better: "lower"},
	{Name: "table.main_rows", Unit: "count", Better: "higher"},
	{Name: "table.delta_rows_end", Unit: "count", Better: "lower"},
	{Name: "table.merge_prepare_us", Unit: "us", Better: "lower"},
	{Name: "table.merge_build_ms", Unit: "ms", Better: "lower"},
	{Name: "table.merge_swap_us", Unit: "us", Better: "lower"},
	{Name: "table.merge_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "table.merge_interference_ratio", Unit: "ratio", Better: "lower"},
	{Name: "table.merges", Unit: "count", Better: "higher"},
	{Name: "table.merges_crossed", Unit: "count", Better: "higher"},

	{Name: "recycler.exact_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "recycler.topup_frac", Unit: "frac", Better: "higher"},
	{Name: "recycler.topup_rows", Unit: "count", Better: "lower"},
	{Name: "recycler.lookup_us", Unit: "us", Better: "lower"},
	{Name: "recycler.bytes", Unit: "B", Better: "lower"},

	{Name: "shard.pruned_frac", Unit: "frac", Better: "higher"},
	{Name: "shard.dispatched_per_query", Unit: "count", Better: "lower"},
	{Name: "shard.prune_us", Unit: "us", Better: "lower"},
	{Name: "shard.fold_us", Unit: "us", Better: "lower"},
	{Name: "shard.scatter_wait_us", Unit: "us", Better: "lower"},
	{Name: "shard.slowest_shard_frac", Unit: "frac", Better: "lower"},
	{Name: "shard.delta_single_frac", Unit: "frac", Better: "higher"},
	{Name: "shard.n1_overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "obs.watch_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "obs.span_overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "runtime.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_query", Unit: "kB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},

	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.query_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.writer_lateness_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "client.trace_coverage_frac", Unit: "frac", Better: "higher"},
}

// countMetrics are the layer metrics that must repeat exactly for the same
// seed on a single-client workload; -compare asserts it.
var countMetrics = []string{
	"sql.parse_count", "core.admitted_count", "core.evicted_count", "md.pushdown_count",
	"query.subjoins", "query.executed", "query.pruned_empty", "query.pruned_md",
	"query.pruned_scan", "query.rows_scanned", "query.tuples_joined",
}

// metricValues maps metric name to value.
type metricValues map[string]float64

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(1, rankOf(p, len(sorted)))-1]
}

// rankOf is the nearest-rank position ceil(p/100 x n), computed so that a
// product that is a whole number in exact arithmetic is not rounded up by
// its floating-point error.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailCandidates are the percentiles the picker chooses from.
var tailCandidates = []float64{50, 90, 95, 99, 99.9}

// highestPercentile picks the highest candidate percentile that still has
// at least ten of the n samples beyond it (choosing-metrics guide, sec. 1).
// It returns 0 when even the median has fewer than ten samples above it.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		beyond := n - rankOf(p, n)
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted slice; 0 when empty.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
