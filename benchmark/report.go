package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/recycler"
	"aggcache/internal/shard"
)

// envStamp records where and how a result was produced.
type envStamp struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    int     `json:"seconds"`
	Clients    int     `json:"clients"`
	Workers    int     `json:"workers"`
}

// gitSHA asks git for the checkout's commit; the driver's checkout is not a
// repository, so "unknown" is an expected answer.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// result is one run of one workload.
type result struct {
	Workload  string         `json:"workload"`
	Traced    bool           `json:"traced"`
	Env       envStamp       `json:"env"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   metricValues   `json:"metrics"`
	Samples   map[string]int `json:"samples"` // sample count behind each timing metric
	Errors    []string       `json:"errors,omitempty"`
	TraceFile string         `json:"trace_file,omitempty"`
}

// options are the run settings that are not part of the workload.
type options struct {
	outDir        string
	perturbOracle bool // self-test: corrupt served results so the oracle must object
}

// setupRepeats is how often an untraced run sets the workload up: set-up
// time is reported as the median, and the last instance is the one timed.
const setupRepeats = 5

// tracedFrac is the share of the operation count a traced run executes,
// once untraced for the overhead baseline and once traced.
const tracedFrac = 0.25

// checkAll oracle-checks every prepared query and returns the mean oracle
// (uncached) execution time in milliseconds.
func (inst *instance) checkAll(res *result, opt options, when string) float64 {
	var total time.Duration
	for i := range inst.queries {
		res.Attempted++
		d, err := inst.eng.check(&inst.queries[i], opt.perturbOracle)
		total += d
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("%s timed phase: %v", when, err))
		}
	}
	return ratio(float64(total)/1e6, float64(len(inst.queries)))
}

// countPhase folds a timed phase's operations and failures into the result.
func (res *result) countPhase(ph *phase) {
	a := ph.a
	res.Attempted += len(a.latMS) + len(a.insertBatchMS) + len(a.mergeMS) + ph.boundaryN
	res.Failed += a.errs + len(ph.boundary)
	for _, err := range ph.boundary {
		res.Errors = append(res.Errors, err.Error())
	}
	if a.errs > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d operations failed in the timed phase", a.errs))
	}
}

// runWorkload sets a workload up, checks it, runs its timed phase and
// reports: end-to-end metrics from an untraced run, layer metrics from a
// traced one.
func runWorkload(sp *spec, p params, traced bool, opt options) (*result, error) {
	workers := sp.workers(p.nproc)
	if sp.clients*workers > p.nproc {
		return nil, fmt.Errorf("%s needs clients x workers = %d x %d > nproc = %d: the load generator and the engine would share cores",
			sp.name, sp.clients, workers, p.nproc)
	}
	res := &result{
		Workload: sp.name, Traced: traced,
		Env: envStamp{GitSHA: gitSHA(), GoVersion: runtime.Version(), NProc: p.nproc,
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: p.seed, Scale: p.scale, Seconds: p.seconds,
			Clients: sp.clients, Workers: workers},
		Metrics: metricValues{},
		Samples: map[string]int{},
	}
	// A metric the workload does not exercise reads 0 rather than missing.
	for _, d := range defsFor(traced) {
		res.Metrics[d.Name] = 0
	}
	if traced {
		return res, runTraced(sp, p, opt, res)
	}

	var inst *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		inst = nil   // the previous instance is garbage before the next is built,
		runtime.GC() // and collected, so every set-up starts on the same heap
		t := time.Now()
		built, err := sp.build(sp, p)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		inst = built
	}
	inst.checkAll(res, opt, "before")
	if inst.beforeTimed != nil {
		inst.beforeTimed()
	}
	// The operation count is sized to fill the requested run length on a
	// quiet reference host; a slower host measures for the run length too.
	inst.limit = time.Duration(p.seconds) * time.Second
	ph := inst.runPhase(1, false)
	res.countPhase(ph)
	inst.checkAll(res, opt, "after")

	a := ph.a
	lat := sortedCopy(a.latMS)
	m := res.Metrics
	m["setup_s"] = median(setups)
	m["live_heap_mb"] = ph.heapMB
	res.Samples["setup_s"] = len(setups)
	timing := []string{"query_p50_ms", "query_p95_ms", "queries_per_s", "cpu_ms_per_query"}
	if inst.mixed != nil {
		// Not stationary: whole-phase figures (see bestQuarter).
		m["query_p50_ms"] = percentile(lat, 50)
		m["query_p95_ms"] = percentile(lat, 95)
		m["queries_per_s"] = ratio(float64(len(lat)), ph.wall.Seconds())
		m["cpu_ms_per_query"] = ratio(float64(ph.cpu)/1e6, float64(len(lat)))
		for _, name := range timing {
			res.Samples[name] = len(lat)
		}
	} else {
		var p50, p95, qps, cpuMS []float64
		for _, sg := range a.segs {
			n := float64(sg.hi - sg.lo)
			if n == 0 {
				continue
			}
			sl := sortedCopy(a.latMS[sg.lo:sg.hi])
			p50 = append(p50, percentile(sl, 50))
			p95 = append(p95, percentile(sl, 95))
			qps = append(qps, ratio(n, sg.wall.Seconds()))
			cpuMS = append(cpuMS, ratio(float64(sg.cpu)/1e6, n))
		}
		m["query_p50_ms"] = bestQuarter(p50, "lower")
		m["query_p95_ms"] = bestQuarter(p95, "lower")
		m["queries_per_s"] = bestQuarter(qps, "higher")
		m["cpu_ms_per_query"] = bestQuarter(cpuMS, "lower")
		for _, name := range timing {
			res.Samples[name] = len(p50) // slices; the queries behind them are client.samples
		}
	}
	res.Samples["live_heap_mb"] = 1
	return res, nil
}

// runTraced is the traced run: the same quarter of the operations twice on
// two identically seeded set-ups — untraced for the overhead baseline, then
// with harness-side spans around every call into a layer — followed by the
// layer probes on the traced instance's final state.
func runTraced(sp *spec, p params, opt options, res *result) error {
	base, err := sp.build(sp, p)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	inst, err := sp.build(sp, p)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	uncachedMS := inst.checkAll(res, opt, "before")
	for _, in := range []*instance{base, inst} {
		if in.beforeTimed != nil {
			in.beforeTimed()
		}
	}
	var rc0 recycler.Debug
	if inst.rc != nil {
		rc0 = inst.rc.Debug()
	}
	var basePhase, ph *phase
	if inst.mixed != nil {
		// Two concurrent schedules cannot be interleaved; they run in turn.
		basePhase = base.runPhase(1, false)
		ph = inst.runPhase(1, true)
	} else {
		basePhase, ph = runPaired(base, inst, tracedFrac)
	}
	base = nil
	res.countPhase(ph)
	inst.checkAll(res, opt, "after")

	m := res.Metrics
	m["query.uncached_ms"] = uncachedMS
	spans := mergeSpans(ph.tracers)
	self := foldSelfTimes(spans)
	inst.layerMetrics(m, res, ph, basePhase, self, rc0)

	// Probes, cheapest state change last.
	inst.probeMD(m)
	inst.probeTxn(m)
	inst.probeColumn(m)
	inst.probeExpr(m)
	inst.probeAgg(m)
	inst.probeRecycler(m)
	inst.probeObs(m)
	inst.probeShard(m, p)
	if len(ph.a.insertBatchMS) == 0 {
		inst.probeInsert(m)
	}
	inst.probeMerge(m)

	if opt.outDir != "" {
		path, err := writeTrace(opt.outDir, sp.name, spans, self)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: trace file: %v\n", err)
		}
		res.TraceFile = path
	}
	return nil
}

// layerMetrics derives the per-layer metrics of a traced phase from the
// engine's own counters (ExecInfo, query.Stats, debug snapshots), the
// folded span self times, and the client's samples.
func (inst *instance) layerMetrics(m metricValues, res *result, ph, basePhase *phase, self map[string]spanStat, rc0 recycler.Debug) {
	a := ph.a
	lat := sortedCopy(a.latMS)
	n := float64(len(lat))

	m["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	if len(a.insertBatchMS) > 0 {
		if inst.mixed != nil {
			m["insert_p95_ms"] = percentile(sortedCopy(a.insertBatchMS), 95)
			m["client.writer_lateness_p95_ms"] = percentile(sortedCopy(a.latenessMS), 95)
		}
		var busyMS float64
		for i, ms := range a.insertBatchMS {
			if i < len(a.latenessMS) {
				ms -= a.latenessMS[i] // service time, not schedule slip
			}
			busyMS += ms
		}
		m["inserts_per_s"] = ratio(float64(a.insertRows), busyMS/1e3)
		m["table.insert_us"] = ratio(float64(a.insertNS)/1e3, float64(a.insertRows))
	}
	m["merge_ms"] = median(a.mergeMS)
	m["table.merges"] = float64(len(a.mergeMS))
	if len(a.mergeWindows) > 0 {
		inside, outside, crossed := a.mergeOverlap()
		m["table.merge_interference_ratio"] = ratio(percentile(sortedCopy(inside), 95), percentile(sortedCopy(outside), 95))
		m["table.merges_crossed"] = float64(crossed)
	}

	m["sql.parse_us"] = ratio(float64(a.parseNS)/1e3, float64(a.parses))
	m["sql.parse_count"] = float64(a.parses)

	execs := float64(a.execs)
	m["core.hit_frac"] = ratio(float64(a.hits), execs)
	m["core.rebuilt_frac"] = ratio(float64(a.rebuilt), execs)
	m["core.bypassed_frac"] = ratio(float64(a.bypassed), execs)
	m["core.admitted_count"] = float64(a.admitted)
	for _, mgr := range inst.managers() {
		m["core.evicted_count"] += float64(mgr.CacheDebug().Evictions)
		m["core.entries"] += float64(mgr.Len())
		m["core.cache_bytes"] += float64(mgr.SizeBytes())
	}
	m["core.main_comp_rows"] = float64(a.mainCompRows)
	m["core.delta_comp_ms"] = ratio(float64(a.deltaComp)/1e6, execs)
	m["core.delta_tuples"] = ratio(float64(a.deltaTuples), execs)

	st := a.stats
	m["md.pruned_frac"] = ratio(float64(st.PrunedMD), float64(st.Subjoins))
	m["md.pushdown_count"] = float64(st.Pushdowns)
	m["query.subjoins"] = float64(st.Subjoins)
	m["query.subjoins_max"] = float64(a.subjoinsMax)
	m["query.executed"] = float64(st.Executed)
	m["query.pruned_empty"] = float64(st.PrunedEmpty)
	m["query.pruned_md"] = float64(st.PrunedMD)
	m["query.pruned_scan"] = float64(st.PrunedScan)
	m["query.rows_scanned"] = float64(st.RowsScanned)
	m["query.tuples_joined"] = float64(st.TuplesJoined)
	m["query.scan_vec_frac"] = ratio(float64(st.ScanVecRows), float64(st.ScanVecRows+st.ScanScalarRows))
	if inst.eng.sh != nil {
		// The scatter layer hands out no span tree: the engine layers under
		// it are read off a replay of the same queries, shard by shard.
		inst.replayShards(m, inst.opsFor(tracedFrac/4))
	} else {
		var wallNS float64
		for _, ms := range a.latMS {
			wallNS += ms * 1e6
		}
		spanMetrics(m, self, n, wallNS, a.ts, inst.workers)
	}

	for _, db := range inst.dbs {
		for _, name := range db.TableNames() {
			t := db.MustTable(name)
			m["table.delta_rows_end"] += float64(t.DeltaRows())
			for _, p := range t.Partitions() {
				m["table.main_rows"] += float64(p.Main.Rows())
			}
		}
	}

	if inst.rc != nil {
		d := inst.rc.Debug()
		lookups := float64((d.Hits - rc0.Hits) + (d.Misses - rc0.Misses) + (d.Topups - rc0.Topups) + (d.Bypasses - rc0.Bypasses))
		m["recycler.exact_hit_frac"] = ratio(float64(d.Hits-rc0.Hits), lookups)
		m["recycler.topup_frac"] = ratio(float64(d.Topups-rc0.Topups), lookups)
		m["recycler.topup_rows"] = float64(inst.rcReg.Counter("recycler.topup_rows").Value())
		m["recycler.bytes"] = float64(d.Bytes + d.BuildBytes)
	}

	if a.shardQueries > 0 {
		q := float64(a.shardQueries)
		m["shard.pruned_frac"] = ratio(float64(a.shardPruned), q*float64(inst.eng.sh.NumShards()))
		m["shard.dispatched_per_query"] = ratio(float64(a.shardScattered), q)
		m["shard.slowest_shard_frac"] = a.slowestFrac / q
		m["shard.delta_single_frac"] = ratio(float64(a.shardSingle), q)
		// Wall not covered by the slowest shard: prune pass, fold, and —
		// with more shards than cores — shards queueing for a core.
		m["shard.scatter_wait_us"] = ratio(float64(a.shardSelfNS)/1e3, q)
	}

	// The Go runtime is read on the untraced twin: spans allocate.
	bn := float64(len(basePhase.a.latMS))
	m["runtime.allocs_per_query"] = ratio(float64(basePhase.mallocs), bn)
	m["runtime.alloc_kb_per_query"] = ratio(float64(basePhase.allocBytes)/1024, bn)
	m["runtime.gc_cycles"] = float64(basePhase.gcCycles)
	m["runtime.gc_pause_ms_total"] = float64(basePhase.gcPause) / 1e6

	m["client.samples"] = n
	m["client.query_p99_ms"] = percentile(lat, 99)
	m["client.query_max_ms"] = percentile(lat, 100)
	tail := highestPercentile(len(lat))
	m["client.query_tail_pct"] = tail
	if tail > 0 {
		m["client.query_tail_ms"] = percentile(lat, tail)
	}
	m["client.trace_overhead_frac"] = ratio(percentile(lat, 50), median(basePhase.a.latMS)) - 1
	// Everything below client.op is attributed to a layer; what is left is
	// the generator's own time between its clock reads and the calls.
	op := self[spanOp]
	m["client.trace_coverage_frac"] = 1 - ratio(float64(op.selfNS), float64(op.totalNS))
	res.Samples["client.samples"] = len(lat)
}

// spanMetrics derives the engine-layer timings from folded span self times:
// per query over n queries whose client-side wall sums to wallNS.
func spanMetrics(m metricValues, self map[string]spanStat, n, wallNS float64, ts traceStats, workers int) {
	perQueryUS := func(name string) float64 { return ratio(float64(self[name].selfNS)/1e3, n) }
	meanMS := func(name string) float64 {
		return ratio(float64(self[name].totalNS)/1e6, float64(self[name].count))
	}
	m["core.lookup_us"] = perQueryUS(spanLookup)
	m["core.main_comp_us"] = perQueryUS(spanMainComp)
	m["core.build_entry_ms"] = meanMS(spanBuildEntry)
	m["core.rebuild_entry_ms"] = meanMS(spanRebuild)
	m["core.overhead_us"] = perQueryUS(spanExecute)
	scanNS, joinNS := self[spanScan].selfNS, self[spanSubjoin].selfNS
	m["query.scan_ms"] = ratio(float64(scanNS)/1e6, n)
	m["query.join_agg_ms"] = ratio(float64(joinNS)/1e6, n)
	m["query.subjoin_ms"] = ratio(float64(scanNS+joinNS+self[spanExecuteAll].selfNS)/1e6, n)
	m["query.kernel_frac"] = ratio(float64(scanNS+joinNS), wallNS)
	// Pool efficiency over the phases that fan out: worker-run span time
	// against phase wall x pool size.
	var fanNS int64
	for _, name := range []string{spanDeltaComp, spanBuildEntry, spanRebuild, spanExecuteAll} {
		fanNS += self[name].totalNS
	}
	m["query.parallel_efficiency"] = ratio(float64(ts.workNS), float64(fanNS)*float64(workers))
	m["query.worker_queue_us"] = ratio(float64(ts.queueNS)/1e3, n)
}

// replayShards runs ops once more, each query through ExplainAnalyze on
// every shard the scatter layer dispatches it to, one shard after the
// other, and derives the engine-layer timings per scatter query. Their
// kernel share is of the shards' summed execution time, not of the
// scatter's wall.
func (inst *instance) replayShards(m metricValues, ops []op) {
	s := inst.eng.sh
	a := &acc{tr: newTracer()}
	var wallNS float64
	for _, o := range ops {
		p := &inst.queries[o.query]
		_, info, err := s.Execute(p.q, p.strat)
		if err != nil {
			return
		}
		start := time.Now()
		op := a.tr.beginOp(start, start)
		for i, mgr := range s.Managers() {
			if info.Reasons[i] != shard.PruneNone {
				continue
			}
			t := time.Now()
			_, _, sp, err := mgr.ExplainAnalyze(p.q, p.strat)
			end := time.Now()
			if err != nil {
				return
			}
			wallNS += float64(end.Sub(t))
			a.tr.addEngineTree(a.tr.add(op, spanExecute, t, end), sp, &a.ts)
		}
	}
	spanMetrics(m, foldSelfTimes(a.tr.spans), float64(len(ops)), wallNS, a.ts, inst.workers)
}

// managers lists the cache managers behind the engine.
func (inst *instance) managers() []*core.Manager {
	if inst.eng.sh != nil {
		return inst.eng.sh.Managers()
	}
	return []*core.Manager{inst.eng.mgr}
}
