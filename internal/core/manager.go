package core

import (
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/expr"
	"aggcache/internal/md"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/recycler"
	"aggcache/internal/table"
	"aggcache/internal/txn"
	"aggcache/internal/vec"
)

// Config tunes the cache manager.
type Config struct {
	// CapacityBytes bounds the summed size of cached aggregate values;
	// 0 means unlimited. When exceeded, the lowest-profit entries are
	// evicted.
	CapacityBytes uint64
	// MinProfit is the admission threshold on Metrics.Profit; 0 admits
	// every self-maintainable query.
	MinProfit float64
	// Workers caps the number of goroutines the executor's subjoin pool may
	// use per query; 0 means GOMAXPROCS. With one worker the pool executes
	// inline on the calling goroutine. Results are identical for every
	// worker count.
	Workers int
	// DisableJoinCompensation turns off negative-delta main compensation
	// for join entries (the paper's Sec. 8 extension implemented here):
	// with it disabled, a join entry whose main stores saw invalidations
	// is rebuilt on next access instead of being compensated by
	// inclusion-exclusion over the invalidated-row subjoins.
	DisableJoinCompensation bool
	// Metrics selects the observability registry the manager reports
	// into; nil uses the process-wide obs.Default(). Tests inject a
	// private registry to read counters in isolation.
	Metrics *obs.Registry
	// Events selects the structured event log lifecycle events (cache
	// admission/eviction/invalidation, subjoin prune and pushdown
	// decisions) are emitted to; nil uses the process-wide obs.Events(),
	// which is the disabled no-op stream unless a binary installed one.
	Events *obs.EventLog
	// Recorder is the query flight recorder: when non-nil, every Execute and
	// ExplainAnalyze call is traced and its completed span tree retained for
	// /debug/traces and \traces. Nil (the default) disables flight recording;
	// the per-query hook then costs one nil check and no allocations.
	Recorder *obs.Recorder
	// Ledger is the cache decision ledger: when non-nil, every cache
	// decision — admission, rejection, hit, miss, rebuild, bypass,
	// compensation, fold, invalidation, eviction — is recorded with its
	// profit components snapshotted at decision time, for /debug/advisor,
	// \advisor, and the shadow-cache simulator (internal/advisor). Nil (the
	// default) disables the ledger; the per-decision hook then costs one nil
	// check and no allocations.
	Ledger *obs.Ledger
	// SLO is the latency service-level-objective tracker: when non-nil,
	// every execution is classified against its latency target, feeding the
	// error-budget burn rates behind /debug/slo, \slo, and the maintenance
	// governor's overload signal. Nil (the default) disables SLO tracking.
	SLO *obs.SLO
	// Shapes is the per-query-shape profile table: when non-nil, every
	// execution is attributed to its normalized shape fingerprint
	// (query.Shape — literals elided), recording hit rate, compensation
	// cost, delta rows, and windowed latency per shape for /debug/shapes,
	// \shapes, and EXPLAIN ANALYZE. Nil (the default) disables profiling.
	Shapes *obs.Shapes
	// Recycler is the second-level cache of subjoin intermediates and
	// store-side join builds (internal/recycler): when non-nil, delta
	// compensation consults it per subjoin — serving exact watermark hits
	// without executing, topping up older partials by scanning only newly
	// visible rows — and the join kernel reuses cached store-side builds
	// across queries. Invalidation rides the merge hooks. Nil (the
	// default) disables recycling; results are byte-identical either way.
	Recycler *recycler.Cache
}

// ExecInfo reports how one query execution was served.
type ExecInfo struct {
	Strategy Strategy
	// CacheHit is true when an existing, non-stale entry served the query.
	CacheHit bool
	// MemoHit is true when the cache hit was served from the entry's result
	// memo: the answer last computed for it was still exact, so main and
	// delta compensation were skipped. A memo hit is also a CacheHit.
	MemoHit bool
	// Admitted is true when this execution created a cache entry that was
	// admitted.
	Admitted bool
	// Rebuilt is true when a stale join entry was recomputed.
	Rebuilt bool
	// Bypassed is true when the cache could not be used: the query's
	// snapshot predates the entry, or it sees its own writes and the entry
	// is missing or stale (an own-writes read never builds one).
	Bypassed bool
	// MainCompensated counts main-store rows subtracted by main
	// compensation.
	MainCompensated int
	// Stats aggregates subjoin counters for the execution.
	Stats query.Stats
	// Total is the wall-clock execution time.
	Total time.Duration
	// DeltaComp is the wall clock spent in delta compensation, and
	// DeltaTuples the delta-side tuples joined by it — the per-execution
	// compensation cost the shape profiler and governor watch. Zero for
	// uncached executions.
	DeltaComp   time.Duration
	DeltaTuples int64
	// Regret is the ghost-list verdict for a miss: when nonzero, the missed
	// key was evicted earlier and this is the cache-bytes / CapacityBytes
	// multiple at eviction time — the capacity factor at which the ledger
	// predicts this miss would have been a hit.
	Regret float64
}

// Manager is the aggregate cache manager (paper Fig. 1): it owns the cache
// entries, decides admission and eviction by profit, serves queries with
// main and delta compensation, and maintains entries incrementally during
// delta merges.
type Manager struct {
	mu      sync.Mutex
	db      *table.DB
	mds     *md.Registry
	exec    *query.Executor
	cfg     Config
	entries map[string]*Entry
	bytes   uint64
	obs     *managerObs
	ev      *obs.EventLog
	rec     *obs.Recorder
	led     *obs.Ledger
	slo     *obs.SLO
	shapes  *obs.Shapes
	rc      *recycler.Cache
	// ghost is the bounded shadow of recently evicted keys (ghostFIFO holds
	// insertion order); a miss that finds its key here is a capacity regret.
	ghost     map[string]ghostInfo
	ghostFIFO *obs.Ring[string]
	// evictionsByReason counts evictions per reason string (capacity,
	// stale, min-profit) for /debug/cache.
	evictionsByReason map[string]int64
	// pendingFolds stages per-entry maintenance folds computed by
	// FoldOnline during an online merge's build phase, keyed by the merging
	// (table, partition); SwapOnline applies them inside the swap critical
	// section and AbortOnline discards them.
	pendingFolds map[foldKey]*pendingFold
	// foldedActive marks the merging stores (table, partition) whose fold
	// has already been staged in the current merge epoch. Later folds of
	// other simultaneously-merging tables include these stores' frozen
	// deltas in their subjoins — the telescoping that assigns each
	// delta×delta cross term to exactly one fold. Keying by table would
	// count a cross term with a not-yet-folded partition of a folded table
	// twice.
	foldedActive map[foldKey]bool
	// shadow is the installed shadow-verification hook (SetShadow); read
	// lock-free on the Execute path, nil when verification is off.
	shadow atomic.Pointer[shadowBox]
	// deltaWork tallies ExecInfo.DeltaTuples over every compensation this
	// manager ran — the work side of the governor's merge rule. Guarded
	// by mu.
	deltaWork int64
	// Evictions counts evicted entries (for introspection and tests).
	Evictions int64
}

// ShadowHook observes sampled production executions for online shadow
// verification (internal/verify). Core defines the interface so the verify
// package can depend on core without a cycle.
type ShadowHook interface {
	// Sampled decides — cheaply and deterministically, on the serving
	// goroutine — whether this execution should be shadow-verified.
	Sampled(q *query.Query) bool
	// Capture hands over one sampled execution: the served result (still
	// unreturned, safe to render synchronously), its snapshot, and a pin
	// release the hook now owns. Capture must not re-enter the manager's
	// public Execute path synchronously.
	Capture(q *query.Query, strat Strategy, snap txn.Snapshot, release func(), res *query.AggTable, info ExecInfo)
}

// shadowBox wraps the hook interface for atomic.Pointer storage.
type shadowBox struct{ h ShadowHook }

// foldKey identifies the merging partition a staged fold belongs to.
type foldKey struct {
	table string
	part  int
}

// pendingFold holds the staged maintenance folds of one merging partition:
// per entry key, the aggregate of the frozen delta's subjoin contributions
// at the merge snapshot, plus the tuple counts for the entry metrics.
type pendingFold struct {
	folds  map[string]*query.AggTable
	tuples map[string]int64
}

// NewManager creates a cache manager bound to a database and its matching
// dependencies, and registers the merge hook that keeps entries maintained
// across delta merges. mds may be nil when no MDs are declared; the
// full-pruning strategy then degrades to empty-delta pruning.
func NewManager(db *table.DB, mds *md.Registry, cfg Config) *Manager {
	if mds == nil {
		mds = md.NewRegistry(db)
	}
	ev := cfg.Events
	if ev == nil {
		ev = obs.Events()
	}
	m := &Manager{
		db:                db,
		mds:               mds,
		exec:              &query.Executor{DB: db, Events: ev, Workers: cfg.Workers},
		cfg:               cfg,
		entries:           make(map[string]*Entry),
		obs:               newManagerObs(cfg.Metrics),
		ev:                ev,
		rec:               cfg.Recorder,
		led:               cfg.Ledger,
		slo:               cfg.SLO,
		shapes:            cfg.Shapes,
		rc:                cfg.Recycler,
		ghost:             make(map[string]ghostInfo),
		evictionsByReason: make(map[string]int64),
		pendingFolds:      make(map[foldKey]*pendingFold),
		foldedActive:      make(map[foldKey]bool),
	}
	m.exec.ParallelSubjoins = m.obs.parallelSubjoins
	if cfg.Recycler != nil {
		// The interface assignment is gated so a nil *Cache never becomes a
		// non-nil BuildSource.
		m.exec.Builds = cfg.Recycler
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	m.obs.workers.Set(int64(w))
	db.RegisterMergeHook(&mergeHook{m: m})
	return m
}

// Len reports the number of cached entries.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// SizeBytes reports the summed footprint of cached values.
func (m *Manager) SizeBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Entry returns the cached entry for a query, if present.
func (m *Manager) Entry(q *query.Query) (*Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[q.Fingerprint()]
	return e, ok
}

// Clear drops every entry.
func (m *Manager) Clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[string]*Entry)
	m.bytes = 0
	m.syncGauges()
}

// Execute runs an aggregate query block with the chosen strategy under the
// database read lock and the current read snapshot, following the query
// processing flow of paper Fig. 3.
// When the manager has a flight recorder (Config.Recorder), the execution
// is traced and the completed span tree retained; without one the span stays
// nil and the execution path carries no tracing work at all.
func (m *Manager) Execute(q *query.Query, strat Strategy) (*query.AggTable, ExecInfo, error) {
	res, info, _, err := m.serve(q, strat, false)
	return res, info, err
}

// serve is the one public execution path behind Execute, ExplainAnalyze and
// ExecuteRows: database read lock, pinned read snapshot, the exec.inflight
// gauge (the queue-depth half of the governor's overload signal), the root
// span when someone wants one (traced: always, recorder or not), the
// execution, and one observeExec.
func (m *Manager) serve(q *query.Query, strat Strategy, traced bool) (res *query.AggTable, info ExecInfo, sp *obs.Span, err error) {
	m.db.RLock()
	defer m.db.RUnlock()
	snap := m.db.Txns().Acquire()
	defer m.db.Txns().Release(snap)
	m.obs.inflight.Add(1)
	defer m.obs.inflight.Add(-1)
	if traced || m.rec.Enabled() {
		sp = obs.StartSpan("execute " + q.Fingerprint())
		sp.Attr("strategy", strat.String())
		sp.Attr("shape", q.Shape())
	}
	res, info, err = m.execute(q, snap, strat, sp, !traced)
	m.observeExec(q, snap, sp, res, &info, err)
	return res, info, sp, err
}

// SetShadow installs (or, with nil, removes) the shadow-verification hook
// observing public Execute calls. Safe to call while queries are in flight.
func (m *Manager) SetShadow(h ShadowHook) {
	if h == nil {
		m.shadow.Store(nil)
		return
	}
	m.shadow.Store(&shadowBox{h: h})
}

// Oracle re-executes q uncached against an explicit snapshot with its own
// private executor — no cache, no recycler build tables, workers goroutines
// (1 = strictly sequential, 0 = GOMAXPROCS) — under the database read lock.
// It is the reference answer the shadow verifier diffs production results
// against; the snapshot must still be pinned (see txn.Manager.Pin) so the
// row versions it saw survive online merges. The execution is traced under
// sp when non-nil.
func (m *Manager) Oracle(q *query.Query, snap txn.Snapshot, workers int, sp *obs.Span) (*query.AggTable, query.Stats, error) {
	arm := m.OracleArms(q, snap, []*obs.Span{sp}, workers)[0]
	return arm.Rows, arm.Stats, arm.Err
}

// OracleArm is one uncached oracle re-execution at a fixed worker count.
type OracleArm struct {
	Workers int
	Rows    *query.AggTable
	Stats   query.Stats
	Err     error
}

// OracleArms runs one Oracle execution per entry of workers — all under a
// SINGLE database read-lock acquisition. Holding the lock across the arms
// matters when the arms are compared against each other: a blocking merge
// interleaved between two separate Oracle calls rewrites the physical
// store layout, which legitimately changes prune/scan accounting (and so
// Stats) while leaving the snapshot-visible rows identical. sps, when
// non-nil, supplies one trace span per arm (entries may be nil).
func (m *Manager) OracleArms(q *query.Query, snap txn.Snapshot, sps []*obs.Span, workers ...int) []OracleArm {
	m.db.RLock()
	defer m.db.RUnlock()
	arms := make([]OracleArm, len(workers))
	for i, w := range workers {
		var sp *obs.Span
		if i < len(sps) {
			sp = sps[i]
		}
		ex := &query.Executor{DB: m.db, Workers: w}
		rows, st, err := ex.ExecuteAll(q, snap, sp)
		arms[i] = OracleArm{Workers: w, Rows: rows, Stats: st, Err: err}
	}
	return arms
}

// Watermark reports the current commit watermark of the manager's
// transaction layer — the auditor's monotonicity reference.
func (m *Manager) Watermark() txn.TID {
	return m.db.Txns().Watermark()
}

// PinSnapshot pins the current read snapshot against version reclamation
// and returns it with a release function. Every merge started while the pin
// is held retains every row version the snapshot can see, so
// ExecuteAt(q, snap, ...) keeps returning the same result across the merge
// swap. The release function is idempotent.
func (m *Manager) PinSnapshot() (txn.Snapshot, func()) {
	return m.db.Txns().PinRead()
}

// ExecuteAt is Execute against an explicit snapshot; the caller must hold
// the database read lock or otherwise guarantee quiescence. The caller owns
// the snapshot's pin, so the execution is observed but neither traced nor
// offered to the shadow verifier.
func (m *Manager) ExecuteAt(q *query.Query, snap txn.Snapshot, strat Strategy) (*query.AggTable, ExecInfo, error) {
	res, info, err := m.execute(q, snap, strat, nil, true)
	m.observeExec(q, snap, nil, nil, &info, err)
	return res, info, err
}

// ExplainAnalyze is Execute with tracing enabled: it additionally returns
// the span tree of the execution — cache-lookup verdict, main and delta
// compensation, and one child span per subjoin combination carrying its
// prune/pushdown verdict. It never serves the entry's result memo: a memo
// hit has no plan to explain, so a cache hit always runs (and shows) main
// and delta compensation, and its answer then becomes the memo as any
// computed answer does. Tracing is per call; concurrent Execute calls on the
// same manager stay untraced and unaffected.
func (m *Manager) ExplainAnalyze(q *query.Query, strat Strategy) (*query.AggTable, ExecInfo, *obs.Span, error) {
	return m.serve(q, strat, true)
}

// ExecuteRows runs a query like Execute and finalizes the served table into
// rows, unsorted (in the table's slot order, see query.AggTable.UnsortedRows).
func (m *Manager) ExecuteRows(q *query.Query, strat Strategy) ([]query.Row, ExecInfo, error) {
	res, info, _, err := m.serve(q, strat, false)
	if err != nil {
		return nil, info, err
	}
	return res.UnsortedRows(), info, nil
}

// execute answers q at snap: prepare resolves the entry, delta compensation
// completes its main-compensated clone. useMemo lets a cache hit be served
// from the entry's result memo.
func (m *Manager) execute(q *query.Query, snap txn.Snapshot, strat Strategy, sp *obs.Span, useMemo bool) (*query.AggTable, ExecInfo, error) {
	start := time.Now()
	info := ExecInfo{Strategy: strat}
	e, work, err := m.prepare(q, snap, strat, &info, sp, useMemo)
	if err == nil && e != nil { // a nil entry: uncached or bypassed, work is already the answer
		err = m.compensateAndAccount(e, q, snap, strat, work, &info, sp, start)
	}
	info.Total = time.Since(start)
	if err != nil {
		work = nil
	}
	return work, info, err
}

// prepare resolves the cache entry for a query: lookup, admission on miss,
// rebuild when stale, and main compensation on hit. It returns the entry
// together with a private, main-compensated clone of its value for the
// caller to apply delta compensation to — or, with useMemo and a servable
// result memo, a clone of the memo, which is already the answer. The clone is taken under the cache
// lock: during an online merge the maintenance fold settles entry values
// concurrently with readers. For the Uncached strategy, for snapshots
// predating the entry and for own-writes snapshots without a fresh entry it
// executes the query directly and returns the final result with a nil entry
// instead.
func (m *Manager) prepare(q *query.Query, snap txn.Snapshot, strat Strategy, info *ExecInfo, sp *obs.Span, useMemo bool) (*Entry, *query.AggTable, error) {
	if strat == Uncached {
		if err := q.Validate(m.db); err != nil {
			return nil, nil, err
		}
		return m.executeAll(q, snap, info, sp)
	}

	m.mu.Lock()
	defer m.mu.Unlock()

	key := q.Fingerprint()
	e, hit := m.entries[key]
	lookup := sp.Child("cache-lookup")

	// A snapshot older than the entry cannot be compensated forward (rare:
	// long-running read-only transactions). A snapshot that sees its own
	// writes sees rows of a transaction that may still abort: it may
	// compensate a served clone (below) but never builds, rebuilds or
	// changes an entry. Both fall back to uncached execution.
	if hit && snap.High < e.SnapHigh || snap.Self != 0 && (!hit || e.Stale) {
		lookup.Attr("verdict", "bypass")
		lookup.End()
		if !hit {
			if err := q.Validate(m.db); err != nil {
				return nil, nil, err
			}
		}
		info.Bypassed = true
		return m.executeAll(q, snap, info, sp)
	}

	var work *query.AggTable
	switch {
	case !hit:
		lookup.Attr("verdict", "miss")
		// Ghost check: a miss on a recently evicted key is a regret — the
		// ledger predicts it would have been a hit at the capacity multiple
		// recorded at eviction time. One regret per eviction.
		if g, ok := m.ghost[key]; ok {
			delete(m.ghost, key)
			info.Regret = g.multiple
			m.obs.regretHits.Inc()
			if lookup != nil {
				lookup.Attr("regret", "ledger-predicted hit at capacity "+
					strconv.FormatFloat(g.multiple, 'f', 1, 64)+"x")
			}
		}
		lookup.End()
		// Validation happens once per query definition: a cache hit means
		// an identical, already-validated definition (the fingerprint
		// covers the full query).
		if err := q.Validate(m.db); err != nil {
			return nil, nil, err
		}
		bs := sp.Child("build-entry")
		var err error
		e, err = m.buildEntry(q, key, snap, strat, &info.Stats, bs)
		if err == nil {
			info.Admitted = m.admit(e)
			bs.Attr("admitted", strconv.FormatBool(info.Admitted))
		}
		bs.End()
		if err != nil {
			return nil, nil, err
		}
	case e.Stale:
		lookup.Attr("verdict", "stale")
		lookup.End()
		rs := sp.Child("rebuild-entry")
		err := m.rebuildEntry(e, snap, strat, &info.Stats, rs)
		rs.End()
		if err != nil {
			return nil, nil, err
		}
		info.Rebuilt = true
	default:
		info.CacheHit = true
		if useMemo && m.memoServable(e, snap, strat) {
			info.MemoHit = true
			lookup.Attr("verdict", "memo-hit")
			lookup.End()
			return e, e.memo.Clone(), nil
		}
		lookup.Attr("verdict", "hit")
		lookup.End()
		// Main compensation: subtract rows invalidated since the entry's
		// watermark via negative-delta subjoins. While an online merge is
		// running on one of the entry's tables, the entry is frozen at the
		// merge baseline — the staged maintenance fold depends on it — and
		// an own-writes read must not change it, so compensation applies
		// transiently to the served clone instead of the entry.
		mode := compPersist
		if snap.Self != 0 || m.entryMergeActive(e) {
			mode = compTransient
			work = e.Value.Clone()
		}
		ms := sp.Child("main-compensation")
		n := m.mainCompensate(e, snap, &info.Stats, work, mode)
		ms.AttrInt("invalidated-rows", int64(n))
		if mode == compTransient {
			ms.Attr("mode", "transient")
		}
		ms.End()
		info.MainCompensated = n
		if e.Stale {
			work = nil
			if snap.Self != 0 {
				info.CacheHit = false
				info.Bypassed = true
				return m.executeAll(q, snap, info, sp)
			}
			rs := sp.Child("rebuild-entry")
			rs.Attr("cause", "uncompensatable main invalidations")
			err := m.rebuildEntry(e, snap, strat, &info.Stats, rs)
			rs.End()
			if err != nil {
				return nil, nil, err
			}
			info.Rebuilt = true
			info.CacheHit = false
		}
	}
	if work == nil {
		work = e.Value.Clone()
	}
	return e, work, nil
}

// executeAll answers q without the cache — the Uncached strategy and the
// old-snapshot bypass — returning prepare's "no entry, final result" shape.
func (m *Manager) executeAll(q *query.Query, snap txn.Snapshot, info *ExecInfo, sp *obs.Span) (*Entry, *query.AggTable, error) {
	us := sp.Child("execute-all")
	res, st, err := m.exec.ExecuteAll(q, snap, us)
	us.End()
	info.Stats = st
	return nil, res, err
}

// entryMergeActive reports whether any table the entry's query references
// has an online merge in flight — the condition under which the entry is
// frozen at the merge baseline. Callers hold m.mu and the database lock
// (either side).
func (m *Manager) entryMergeActive(e *Entry) bool {
	for _, t := range e.tables {
		if t.MergeActive() {
			return true
		}
	}
	return false
}

// compensateAndAccount runs delta compensation into out, updates the
// entry's usage metrics and keeps out as the entry's result memo. A memo hit
// arrives already complete: it is only accounted. start is when the
// execution began; it stamps the entry's LastAccess.
func (m *Manager) compensateAndAccount(e *Entry, q *query.Query, snap txn.Snapshot, strat Strategy, out *query.AggTable, info *ExecInfo, sp *obs.Span, start time.Time) error {
	if !info.MemoHit {
		dcStart := time.Now()
		before := info.Stats.TuplesJoined
		ds := sp.Child("delta-compensation")
		err := m.deltaCompensate(q, snap, strat, out, &info.Stats, ds)
		ds.AttrInt("delta-tuples", info.Stats.TuplesJoined-before)
		ds.End()
		if err != nil {
			return err
		}
		info.DeltaComp = time.Since(dcStart)
		info.DeltaTuples = info.Stats.TuplesJoined - before
		m.obs.deltaCompLat.Observe(info.DeltaComp)
	}
	m.mu.Lock()
	e.Metrics.DeltaCompTime += info.DeltaComp
	e.Metrics.DeltaRows += info.DeltaTuples
	m.deltaWork += info.DeltaTuples
	if info.CacheHit || info.Rebuilt {
		e.Metrics.Hits++
	}
	e.Metrics.LastAccess = start
	if !info.MemoHit {
		m.storeMemo(e, snap, strat, out)
	}
	m.mu.Unlock()
	return nil
}

// mainCombos enumerates the all-main subjoin combinations of a query —
// what the cache precomputes. With single-partition tables there is exactly
// one; hot/cold tables contribute one per partition.
func mainCombos(db *table.DB, q *query.Query) []query.Combo {
	var out []query.Combo
	for _, c := range query.AllCombos(db, q) {
		if c.IsAllMain() {
			out = append(out, c)
		}
	}
	return out
}

// runCombos evaluates a set of subjoins into out, applying the strategy's
// pruning rules (empty-store skip, MD prefilter, predicate pushdown). With
// tracing enabled (non-nil sp) each subjoin gets a child span carrying its
// verdict — pruned-empty, pruned-md, pruned-scan, or executed — and, when
// predicate pushdown applied, the derived tid-range filters that justified
// it.
//
// Planning is sequential — prune decisions, their events, and the child
// spans happen in combo order on this goroutine — and the surviving
// subjoins run as a batch through the executor's worker pool, which merges
// results (and fires the per-subjoin executed event) back in plan order.
//
// recycle additionally consults the recycler per surviving subjoin (delta
// compensation only): exact watermark hits skip execution entirely, older
// partials are topped up by scanning just the newly visible rows, and
// misses offer their result for admission when the job completes. Lookups
// happen here in plan order and admissions in job-index order on this
// goroutine, so recycler decisions — and their ledger records — are
// byte-identical at every worker count.
func (m *Manager) runCombos(q *query.Query, combos []query.Combo, snap txn.Snapshot, strat Strategy, recycle bool, out *query.AggTable, st *query.Stats, sp *obs.Span) error {
	// The recycler keys partials by the pinned read watermark; snapshots
	// with an in-flight transaction see their own writes and must bypass.
	recycle = recycle && m.rc != nil && snap.Self == 0
	type recDisp uint8
	const (
		recNone  recDisp = iota
		recAdmit         // miss: offer the executed result for admission
		recTopup         // top-up: install the advanced value
	)
	jobs := make([]query.ComboJob, 0, len(combos))
	var disp []recDisp
	for _, combo := range combos {
		st.Subjoins++
		var cs *obs.Span
		if sp != nil {
			cs = sp.Child(combo.String())
		}
		if strat >= CachedEmptyDelta && comboHasEmptyStore(m.db, combo) {
			m.subjoinVerdict(q, combo, cs, &st.PrunedEmpty, "subjoins.pruned_empty", verdict("pruned-empty"), nil)
			cs.End()
			continue
		}
		if strat >= CachedFullPruning && m.mds.ComboPruned(q, combo) {
			m.subjoinVerdict(q, combo, cs, &st.PrunedMD, "subjoins.pruned_md", verdict("pruned-md"), nil)
			cs.End()
			continue
		}
		var extra map[string]expr.Pred
		if strat >= CachedFullPruning {
			if filters, ok := m.mds.PushdownFilters(q, combo); ok {
				extra = filters
				m.subjoinVerdict(q, combo, cs, &st.Pushdowns, "subjoins.pushdowns",
					pushdownAttrs(q, filters, "pushdown.", cs != nil),
					pushdownAttrs(q, filters, "filter.", m.ev.Enabled()))
			}
		}
		job := query.ComboJob{Combo: combo, Extra: extra, Span: cs}
		d := recNone
		if recycle {
			v := m.rc.Lookup(q, combo, snap, m.db)
			if v.Invalidated {
				m.recycleEvicted(q, strat, v.Evicted)
			}
			switch v.Kind {
			case recycler.Hit:
				job.Cached = v.Value
				m.subjoinVerdict(q, combo, cs, &st.RecycledSubjoins, "recycler.hits", verdict("recycled"), nil)
				m.recycled(obs.DecisionRecycleHit, q, strat, combo, 0, 0)
			case recycler.Topup:
				job.Cached = v.Value
				job.Terms = v.Terms
				d = recTopup
				// The top-up terms execute, so the span's verdict stays
				// "executed"; the recycler attr marks the seed reuse.
				m.subjoinVerdict(q, combo, cs, &st.RecycledTopups, "recycler.topups",
					[]slog.Attr{slog.String("recycler", "topup"), slog.Int64("topup-rows", v.NewRows)},
					[]slog.Attr{slog.Int64("new_rows", v.NewRows)})
				m.recycled(obs.DecisionRecycleTopup, q, strat, combo, v.NewRows, 0)
			case recycler.Miss:
				d = recAdmit
			case recycler.Bypass:
				cs.Attr("recycler", "bypass")
			}
		}
		jobs = append(jobs, job)
		disp = append(disp, d)
	}
	// The per-job callback exists only for its two consumers; without them
	// the executor skips it entirely.
	var onDone func(i int, jst *query.Stats, sub *query.AggTable)
	if m.ev.Enabled() || recycle {
		onDone = func(i int, jst *query.Stats, sub *query.AggTable) {
			if recycle && disp[i] != recNone {
				cost := jst.RowsScanned + jst.TuplesJoined
				o := m.rc.Complete(q, jobs[i].Combo, snap, m.db, sub, cost, disp[i] == recTopup)
				if o.Admitted {
					m.recycled(obs.DecisionRecycleAdmit, q, strat, jobs[i].Combo, cost, o.Size)
				}
				m.recycleEvicted(q, strat, o.Evicted)
			}
			// Scan-pruned subjoins emit their own event from the executor,
			// which also owns the executed count and span verdict; recycled
			// hits executed nothing to report.
			if jst.PrunedScan == 0 && jst.Executed > 0 {
				m.subjoinVerdict(q, jobs[i].Combo, nil, nil, "subjoins.executed", nil,
					[]slog.Attr{slog.Int64("tuples", jst.TuplesJoined)})
			}
		}
	}
	if w := m.exec.ParallelWorkers(len(jobs)); w > 0 {
		sp.AttrInt("workers", int64(w))
	}
	return m.exec.ExecuteJobs(q, jobs, snap, out, st, onDone)
}

func comboHasEmptyStore(db *table.DB, combo query.Combo) bool {
	for _, ref := range combo {
		if ref.Resolve(db).Rows() == 0 {
			return true
		}
	}
	return false
}

// buildEntry computes a fresh entry over the all-main subjoins.
func (m *Manager) buildEntry(q *query.Query, key string, snap txn.Snapshot, strat Strategy, st *query.Stats, sp *obs.Span) (*Entry, error) {
	e := &Entry{Key: key, Query: q, tables: make([]*table.Table, len(q.Tables))}
	for i, name := range q.Tables {
		e.tables[i] = m.db.MustTable(name)
	}
	if err := m.rebuildEntry(e, snap, strat, st, sp); err != nil {
		return nil, err
	}
	return e, nil
}

// rebuildEntry (re)computes an entry's value on the main stores at snap.
func (m *Manager) rebuildEntry(e *Entry, snap txn.Snapshot, strat Strategy, st *query.Stats, sp *obs.Span) error {
	wasStale := e.Stale
	begin := time.Now()
	value := query.NewAggTable(e.Query.Aggs)
	tuplesBefore := st.TuplesJoined
	if err := m.runCombos(e.Query, mainCombos(m.db, e.Query), snap, strat, false, value, st, sp); err != nil {
		return err
	}
	e.Value = value
	e.dropMemo()
	e.SnapHigh = snap.High
	e.Stale = false
	// An entry (re)built while an online merge is running describes the
	// pre-swap store layout; the swap marks it stale instead of applying
	// the staged maintenance fold (see mergeHook.SwapOnline).
	e.mergedDirty = m.entryMergeActive(e)
	e.Metrics.MainExecTime = time.Since(begin)
	e.Metrics.MainRows = st.TuplesJoined - tuplesBefore
	m.resize(e)
	e.Metrics.DirtyCounter = 0
	if wasStale {
		e.Metrics.Rebuilds++
	}
	return nil
}

// resize re-measures an entry whose value changed, keeping the cache's byte
// total in step when the entry is resident. Callers hold m.mu.
func (m *Manager) resize(e *Entry) {
	old := e.Metrics.SizeBytes
	e.Metrics.SizeBytes = e.Value.MemBytes()
	if _, cached := m.entries[e.Key]; cached {
		m.bytes = m.bytes - old + e.Metrics.SizeBytes
	}
}

// admit decides cache admission for a freshly built entry: the query must
// be fully self-maintainable (paper Sec. 2.1) and profitable enough; then
// capacity is enforced by evicting the lowest-profit entries.
func (m *Manager) admit(e *Entry) bool {
	reject := ""
	switch {
	case !e.Query.SelfMaintainable():
		reject = "not-self-maintainable"
	case e.Metrics.Profit() < m.cfg.MinProfit:
		reject = "min-profit"
	}
	if reject != "" {
		m.decide(m.entryDecision(obs.DecisionReject, e, reject, 0))
		return false
	}
	m.entries[e.Key] = e
	m.bytes += e.Metrics.SizeBytes
	// The ledger records the admission where the policy made it, ahead of the
	// evictions it causes. Counter and event log wait for the outcome: an
	// entry its own admission evicted again never counted as admitted.
	d := m.entryDecision(obs.DecisionAdmit, e, "", 0)
	m.record(d)
	m.evictOverCapacity()
	_, still := m.entries[e.Key]
	if still {
		m.announce(d)
	}
	return still
}

func (m *Manager) evictOverCapacity() {
	for m.cfg.CapacityBytes > 0 && m.bytes > m.cfg.CapacityBytes && len(m.entries) > 0 {
		var victim *Entry
		for _, e := range m.entries {
			if victim == nil || victimLess(e, victim) {
				victim = e
			}
		}
		m.evict(victim, evictReason(victim, m.cfg.MinProfit))
	}
	m.syncGauges()
}

// markStale invalidates an entry: its main stores saw invalidations that
// cannot be compensated incrementally, so it is rebuilt on next access.
// Callers hold m.mu.
func (m *Manager) markStale(e *Entry, cause string) {
	e.Stale = true
	e.dropMemo()
	m.decide(m.entryDecision(obs.DecisionInvalidate, e, cause, 0))
}

// compMode selects how main compensation treats the entry.
type compMode int

const (
	// compPersist mutates the entry: the value is compensated in place and
	// its watermark advances to snap, a plain read snapshot (the normal
	// query path).
	compPersist compMode = iota
	// compSettle is compPersist for the merge fold settling an entry to the
	// merge baseline S0: it pins the watermark at S0 even when no row
	// vanished, since the staged fold and the swap are keyed to it.
	compSettle
	// compTransient leaves the entry untouched — it is frozen at the merge
	// baseline while an online merge is in flight — and applies the
	// compensation to the caller's target table (the served clone) instead.
	compTransient
)

// String names the mode for ledger compensate decisions.
func (c compMode) String() string {
	switch c {
	case compSettle:
		return "settle"
	case compTransient:
		return "transient"
	}
	return "persist"
}

// mainCompensate applies the main compensation of paper Sec. 2.2: rows of
// the entry's main stores that a plain snapshot at the entry's watermark
// sees and snap does not are removed from the cached value by
// negative-delta subjoins over them (see joinMainCompensate); for a
// single-table entry that is one restricted scan. Each store names those
// rows from its invalidation log (table.Store.VanishedSince), where Fig. 2
// diffs a stored visibility vector against the current one. With
// Config.DisableJoinCompensation, join entries are marked stale for
// rebuild instead, as is any entry whose compensation fails. target is the
// table compensated in compTransient mode and ignored otherwise. It returns
// the number of invalidated rows found.
func (m *Manager) mainCompensate(e *Entry, snap txn.Snapshot, st *query.Stats, target *query.AggTable, mode compMode) int {
	if mode != compTransient {
		target = e.Value
	}
	base := txn.Snapshot{High: e.SnapHigh}
	var vanished map[query.StoreRef]*vec.BitSet
	total := 0
	for _, t := range e.tables {
		for pi, p := range t.Partitions() {
			if rows, n := p.Main.VanishedSince(base, snap); n > 0 {
				if vanished == nil {
					vanished = map[query.StoreRef]*vec.BitSet{}
				}
				vanished[query.StoreRef{Table: t.Name(), Part: pi, Main: true}] = rows
				total += n
			}
		}
	}
	if total == 0 {
		if mode == compSettle {
			e.SnapHigh = snap.High
		}
		return 0
	}
	if m.cfg.DisableJoinCompensation && len(e.Query.Tables) > 1 {
		m.markStale(e, "join compensation disabled")
		return total
	}
	if err := m.joinMainCompensate(e, vanished, st, target); err != nil {
		// Fall back to a rebuild rather than serving a wrong result.
		m.markStale(e, "join compensation failed: "+err.Error())
		return total
	}
	if mode != compTransient {
		e.dropMemo()
		e.Metrics.DirtyCounter += int64(total)
		m.resize(e)
		m.syncGauges()
		e.SnapHigh = snap.High
	}
	m.decide(m.entryDecision(obs.DecisionCompensate, e, mode.String(), int64(total)))
	return total
}

// SLO returns the manager's SLO tracker; nil when disabled.
func (m *Manager) SLO() *obs.SLO { return m.slo }

// Recycler returns the second-level intermediate cache; nil when disabled.
func (m *Manager) Recycler() *recycler.Cache { return m.rc }

// Shapes returns the per-shape profile table; nil when disabled.
func (m *Manager) Shapes() *obs.Shapes { return m.shapes }

// DeltaWork reports the delta tuples joined by every delta compensation
// this manager has run; a memo hit adds nothing.
func (m *Manager) DeltaWork() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deltaWork
}

// RotateWindows advances every rolling view one slot — the SLO tracker and
// each shape's window. Driven on a fixed cadence by the background sampler
// (or a test clock); slot count × cadence is the rolling span.
func (m *Manager) RotateWindows() {
	m.slo.Rotate()
	m.shapes.Rotate()
}

// deltaCompensate unions the subjoins that involve at least one delta store
// into res (paper Sec. 2.3.2), applying the strategy's pruning.
func (m *Manager) deltaCompensate(q *query.Query, snap txn.Snapshot, strat Strategy, res *query.AggTable, st *query.Stats, sp *obs.Span) error {
	var combos []query.Combo
	for _, c := range query.AllCombos(m.db, q) {
		if !c.IsAllMain() {
			combos = append(combos, c)
		}
	}
	// Delta compensation is the recycler's regime: the same delta-involving
	// subjoins recur across queries and across successive compensations of
	// one query at advancing watermarks.
	return m.runCombos(q, combos, snap, strat, true, res, st, sp)
}
