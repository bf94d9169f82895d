package core

import (
	"log/slog"
	"sort"
	"time"

	"aggcache/internal/expr"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/txn"
)

// This file is the manager's observer seam. Everything the manager tells its
// subscribers — registry, event log, decision ledger, SLO tracker, shape
// profiler, flight recorder, shadow verifier — leaves through three
// functions: decide (one cache decision), observeExec (one finished
// execution) and subjoinVerdict (one subjoin planning outcome). Every
// subscriber is nil-disabled, and with all of them off the seam allocates
// nothing.

// decisionSpecs routes each cache decision kind: the registry counter it
// bumps and, for the logged lifecycle kinds, the event-log attributes its
// Reason and Rows go under ("" = left out) — the line is named like the
// counter, so the event stream and the time series join on one namespace.
// Access decisions fire once per query and stay out of the event log.
// Recycler kinds lie beyond the table and reach only the ledger: the recycler
// counts its own pool, and runCombos logs the subjoin verdict.
var decisionSpecs = [...]struct {
	metric       string
	logged       bool
	reason, rows string
}{
	obs.DecisionHit:        {metric: "cache.hits"},
	obs.DecisionMiss:       {metric: "cache.misses"},
	obs.DecisionRebuild:    {metric: "cache.rebuilds"},
	obs.DecisionBypass:     {metric: "cache.bypasses"},
	obs.DecisionAdmit:      {"cache.admissions", true, "", ""},
	obs.DecisionReject:     {"cache.rejections", true, "reason", ""},
	obs.DecisionEvict:      {"cache.evictions", true, "reason", ""},
	obs.DecisionInvalidate: {"cache.invalidations", true, "cause", ""},
	obs.DecisionCompensate: {"cache.compensations", true, "mode", "rows"},
	obs.DecisionFold:       {"cache.maintenances", true, "mode", "delta_tuples"},
}

// managerObs holds the manager's metric handles, resolved once at
// construction so the per-query updates are pure atomics (zero heap
// allocations on the hot path). The names form the engine's public metric
// namespace, served by /metrics and embedded in benchrunner -json output.
type managerObs struct {
	reg *obs.Registry

	// decided holds one counter per cache decision kind, named by
	// decisionSpecs; evictedBy sub-splits cache.evictions by reason into
	// cache.evictions_capacity / _stale / _min_profit.
	decided   [len(decisionSpecs)]*obs.Counter
	evictedBy map[string]*obs.Counter
	entries   *obs.Gauge // cache.entries — current entry count
	bytes     *obs.Gauge // cache.bytes — current cached-value footprint

	// Compensation and subjoin execution.
	mainCompRows *obs.Counter // comp.main_rows — rows removed by main compensation
	subjoins     *obs.Counter // subjoins.considered
	executed     *obs.Counter // subjoins.executed
	prunedEmpty  *obs.Counter // subjoins.pruned_empty
	prunedMD     *obs.Counter // subjoins.pruned_md
	prunedScan   *obs.Counter // subjoins.pruned_scan
	pushdowns    *obs.Counter // subjoins.pushdowns
	rowsScanned  *obs.Counter // exec.rows_scanned
	tuplesJoined *obs.Counter // exec.tuples_joined
	// Recycler reuse as seen by executions (the recycler's own pool
	// counters live under recycler.* in the cache's registry).
	recycledSubjoins *obs.Counter // subjoins.recycled — served whole from the recycler
	recycledTopups   *obs.Counter // subjoins.recycle_topups — seeded and topped up

	// Parallel subjoin pipeline.
	workers          *obs.Gauge   // exec.workers — resolved worker pool cap
	parallelSubjoins *obs.Counter // exec.parallel_subjoins — subjoins run on pool workers

	// Decision ledger and regret accounting.
	decisions  *obs.Counter // cache.decisions — ledger decisions recorded
	regretHits *obs.Counter // cache.regret_hits — misses on recently evicted keys

	// Latency distributions.
	queryLat     *obs.Histogram // latency.query — full Execute wall clock
	deltaCompLat *obs.Histogram // latency.delta_comp — delta compensation only

	// Rolling windows over the same two distributions (windowed p50/p95/p99
	// rather than since-process-start), rotated by Manager.RotateWindows;
	// always on — Observe is the same atomics as a Histogram.
	queryWin *obs.Window
	compWin  *obs.Window

	// inflight tracks executions currently inside Execute/ExecuteRows/
	// ExplainAnalyze — the queue-depth half of the governor's overload
	// signal.
	inflight *obs.Gauge // exec.inflight
}

func newManagerObs(reg *obs.Registry) *managerObs {
	if reg == nil {
		reg = obs.Default()
	}
	o := &managerObs{
		reg: reg,
		evictedBy: map[string]*obs.Counter{
			EvictCapacity:  reg.Counter("cache.evictions_capacity"),
			EvictStale:     reg.Counter("cache.evictions_stale"),
			EvictMinProfit: reg.Counter("cache.evictions_min_profit"),
		},
		entries:      reg.Gauge("cache.entries"),
		bytes:        reg.Gauge("cache.bytes"),
		mainCompRows: reg.Counter("comp.main_rows"),
		subjoins:     reg.Counter("subjoins.considered"),
		executed:     reg.Counter("subjoins.executed"),
		prunedEmpty:  reg.Counter("subjoins.pruned_empty"),
		prunedMD:     reg.Counter("subjoins.pruned_md"),
		prunedScan:   reg.Counter("subjoins.pruned_scan"),
		pushdowns:    reg.Counter("subjoins.pushdowns"),
		rowsScanned:  reg.Counter("exec.rows_scanned"),
		tuplesJoined: reg.Counter("exec.tuples_joined"),
		workers:      reg.Gauge("exec.workers"),

		recycledSubjoins: reg.Counter("subjoins.recycled"),
		recycledTopups:   reg.Counter("subjoins.recycle_topups"),

		parallelSubjoins: reg.Counter("exec.parallel_subjoins"),
		decisions:        reg.Counter("cache.decisions"),
		regretHits:       reg.Counter("cache.regret_hits"),
		queryLat:         reg.Histogram("latency.query"),
		deltaCompLat:     reg.Histogram("latency.delta_comp"),
		queryWin:         obs.NewWindow(obs.DefaultWindowSlots),
		compWin:          obs.NewWindow(obs.DefaultWindowSlots),
		inflight:         reg.Gauge("exec.inflight"),
	}
	for kind, spec := range decisionSpecs {
		o.decided[kind] = reg.Counter(spec.metric)
	}
	return o
}

// decide announces one cache decision to every subscriber, once: counter and
// event line (announce), then the ledger record (record). Lifecycle decisions
// arrive with m.mu held, which orders them; access and recycler decisions
// arrive unlocked from the goroutine coordinating the query. extra carries
// event-log attributes the Decision has no field for.
func (m *Manager) decide(d obs.Decision, extra ...slog.Attr) {
	m.announce(d, extra...)
	m.record(d)
}

// announce is the only place a per-kind cache counter moves (evictions
// sub-split by reason) or a cache event is emitted; the line is rendered from
// the Decision's own fields.
func (m *Manager) announce(d obs.Decision, extra ...slog.Attr) {
	if int(d.Kind) >= len(decisionSpecs) {
		return
	}
	spec := &decisionSpecs[d.Kind]
	m.obs.decided[d.Kind].Inc()
	if d.Kind == obs.DecisionEvict {
		m.obs.evictedBy[d.Reason].Inc()
	}
	if !spec.logged || !m.ev.Enabled() {
		return
	}
	attrs := make([]slog.Attr, 0, 5+len(extra))
	attrs = append(attrs, slog.String("key", d.Key))
	if spec.reason != "" {
		attrs = append(attrs, slog.String(spec.reason, d.Reason))
	}
	if spec.rows != "" {
		attrs = append(attrs, slog.Int64(spec.rows, d.Rows))
	}
	attrs = append(attrs, slog.Float64("profit", d.Profit), slog.Uint64("size_bytes", d.SizeBytes))
	m.ev.Emit(spec.metric, append(attrs, extra...)...)
}

// record is the only place the decision ledger is appended to.
func (m *Manager) record(d obs.Decision) {
	if m.led.Enabled() {
		m.obs.decisions.Inc()
		m.led.Record(d)
	}
}

// observeExec announces one finished execution, in fixed order: registry
// counters and latency histogram, rolling window, the access decision
// (cached strategies only — uncached executions make no cache decision),
// SLO tracker, shape profiler, flight recorder, shadow verifier. Failed
// executions reach only the SLO, the profiler and the recorder. sp is the
// root span to end and retain, if any.
//
// shadow is the result to offer the shadow verifier, nil for none. The
// hand-off must run before the serving pin releases: the hook's nested Pin
// at the same watermark keeps the snapshot's row versions reclaimable-proof
// for the background re-execution. Uncached executions are skipped — they
// ARE the oracle.
func (m *Manager) observeExec(q *query.Query, snap txn.Snapshot, sp *obs.Span, shadow *query.AggTable, info *ExecInfo, err error) {
	cached := info.Strategy != Uncached
	if err == nil {
		m.obs.mainCompRows.Add(int64(info.MainCompensated))
		m.obs.recordStats(&info.Stats)
		m.obs.queryLat.Observe(info.Total)
		m.obs.queryWin.Observe(info.Total)
		if cached {
			m.decide(m.accessDecision(q, info))
		}
	}
	m.slo.Record(info.Total, err != nil)
	if m.shapes.Enabled() {
		m.shapes.Observe(q.Shape(), info.Total, info.CacheHit, info.MemoHit, err != nil,
			int64(info.DeltaComp/time.Microsecond), info.DeltaTuples)
	}
	if sp != nil {
		sp.End()
		m.rec.Record(sp)
	}
	if box := m.shadow.Load(); box != nil && shadow != nil && err == nil && cached && box.h.Sampled(q) {
		box.h.Capture(q, info.Strategy, snap, m.db.Txns().Pin(snap), shadow, *info)
	}
}

// subjoinVerdict announces one subjoin planning outcome in the three places
// that carry it, so they cannot drift: the Stats counter n, the subjoin's
// span cs (stamped with span), and the event-log line (named like the
// registry counter Stats feeds, carrying detail). The executor owns the count
// and span of executed subjoins; their callers pass nil for both.
func (m *Manager) subjoinVerdict(q *query.Query, combo query.Combo, cs *obs.Span, n *int, event string, span, detail []slog.Attr) {
	if n != nil {
		*n++
	}
	if cs != nil {
		for _, a := range span {
			cs.Attr(a.Key, a.Value.String())
		}
	}
	if m.ev.Enabled() {
		attrs := append([]slog.Attr{slog.String("query", q.Fingerprint()), slog.String("combo", combo.String())}, detail...)
		m.ev.Emit(event, attrs...)
	}
}

// verdict is the span stamp of a subjoin that does not execute.
func verdict(v string) []slog.Attr { return []slog.Attr{slog.String("verdict", v)} }

// pushdownAttrs renders the derived tid-range filters of a pushdown, one
// attribute per filtered table in query order; the rendering carries the
// ranges. The span names them pushdown.<table>, the event log
// filter.<table>; a listener that is off costs nothing.
func pushdownAttrs(q *query.Query, filters map[string]expr.Pred, prefix string, on bool) []slog.Attr {
	if !on {
		return nil
	}
	var attrs []slog.Attr
	for _, name := range q.Tables {
		if p, ok := filters[name]; ok {
			attrs = append(attrs, slog.String(prefix+name, p.String()))
		}
	}
	return attrs
}

// recordStats folds a subjoin counter batch into the registry.
func (o *managerObs) recordStats(st *query.Stats) {
	o.subjoins.Add(int64(st.Subjoins))
	o.executed.Add(int64(st.Executed))
	o.prunedEmpty.Add(int64(st.PrunedEmpty))
	o.prunedMD.Add(int64(st.PrunedMD))
	o.prunedScan.Add(int64(st.PrunedScan))
	o.pushdowns.Add(int64(st.Pushdowns))
	o.rowsScanned.Add(st.RowsScanned)
	o.tuplesJoined.Add(st.TuplesJoined)
	o.recycledSubjoins.Add(int64(st.RecycledSubjoins))
	o.recycledTopups.Add(int64(st.RecycledTopups))
}

// syncGauges publishes the cache footprint; callers hold m.mu.
func (m *Manager) syncGauges() {
	m.obs.entries.Set(int64(len(m.entries)))
	m.obs.bytes.Set(int64(m.bytes))
}

// Metrics returns the registry this manager reports into.
func (m *Manager) Metrics() *obs.Registry { return m.obs.reg }

// EntrySnapshot is a copy of one cache entry's metrics, safe to read
// without the manager lock — the /debug/cache and \cache introspection
// payload.
type EntrySnapshot struct {
	Key          string    `json:"key"`
	Stale        bool      `json:"stale"`
	Hits         int64     `json:"hits"`
	SizeBytes    uint64    `json:"size_bytes"`
	MainRows     int64     `json:"main_rows"`
	DeltaRows    int64     `json:"delta_rows"`
	Rebuilds     int64     `json:"rebuilds"`
	Maintenances int64     `json:"maintenances"`
	DirtyCounter int64     `json:"dirty_counter"`
	MainExecMS   float64   `json:"main_exec_ms"`
	DeltaCompMS  float64   `json:"delta_comp_ms"`
	Profit       float64   `json:"profit"`
	LastAccess   time.Time `json:"last_access"`
}

// EntriesByProfit snapshots every cache entry's metrics under the manager
// lock, sorted by descending profit (the eviction order, best kept first).
func (m *Manager) EntriesByProfit() []EntrySnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]EntrySnapshot, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, EntrySnapshot{
			Key:          e.Key,
			Stale:        e.Stale,
			Hits:         e.Metrics.Hits,
			SizeBytes:    e.Metrics.SizeBytes,
			MainRows:     e.Metrics.MainRows,
			DeltaRows:    e.Metrics.DeltaRows,
			Rebuilds:     e.Metrics.Rebuilds,
			Maintenances: e.Metrics.Maintenances,
			DirtyCounter: e.Metrics.DirtyCounter,
			MainExecMS:   float64(e.Metrics.MainExecTime) / float64(time.Millisecond),
			DeltaCompMS:  float64(e.Metrics.DeltaCompTime) / float64(time.Millisecond),
			Profit:       e.Metrics.Profit(),
			LastAccess:   e.Metrics.LastAccess,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Profit > out[j].Profit })
	return out
}

// EntryMetrics returns a copy of the entry metrics for a query, taken under
// the manager lock — the race-safe alternative to reading Entry.Metrics
// through the pointer Entry() returns.
func (m *Manager) EntryMetrics(q *query.Query) (Metrics, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[q.Fingerprint()]
	if !ok {
		return Metrics{}, false
	}
	return e.Metrics, true
}
