package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"aggcache/internal/obs"
	"aggcache/internal/query"
)

// ledgerEnv is newEnv with a decision ledger and a private registry.
func ledgerEnv(t testing.TB, cfg Config) (*env, *obs.Ledger, *obs.Registry) {
	t.Helper()
	led := obs.NewLedger(0)
	reg := obs.NewRegistry()
	cfg.Ledger = led
	cfg.Metrics = reg
	return newEnv(t, cfg), led, reg
}

func kinds(ds []obs.Decision) []obs.DecisionKind {
	out := make([]obs.DecisionKind, len(ds))
	for i := range ds {
		out[i] = ds[i].Kind
	}
	return out
}

func kindsEqual(got, want []obs.DecisionKind) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestLedgerDecisionStream walks one cache lifecycle — build, reuse,
// compensate, fold, rebuild — and checks every step left the right decision
// with sensible profit components.
func TestLedgerDecisionStream(t *testing.T) {
	e, led, reg := ledgerEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	e.db.MergeTablesOnline(false, "Header", "Item")

	q := headerOnlyQuery()
	if _, info, err := e.mgr.Execute(q, CachedNoPruning); err != nil || !info.Admitted {
		t.Fatalf("first execution: info=%+v err=%v", info, err)
	}
	if _, info, err := e.mgr.Execute(q, CachedNoPruning); err != nil || !info.CacheHit {
		t.Fatalf("second execution: info=%+v err=%v", info, err)
	}
	// Admission is decided inside the miss, so it precedes the access record.
	want := []obs.DecisionKind{obs.DecisionAdmit, obs.DecisionMiss, obs.DecisionHit}
	snap := led.Snapshot()
	if !kindsEqual(kinds(snap), want) {
		t.Fatalf("kinds = %v, want %v", kinds(snap), want)
	}
	admit, miss, hit := snap[0], snap[1], snap[2]
	if admit.Key != q.Fingerprint() || admit.SizeBytes == 0 || admit.MainRows == 0 {
		t.Fatalf("admit components not snapshotted: %+v", admit)
	}
	if miss.Strategy != CachedNoPruning.String() || miss.ServeNS <= 0 {
		t.Fatalf("miss access record incomplete: %+v", miss)
	}
	if hit.Hits != 1 || hit.CacheEntries != 1 || hit.CacheBytes != admit.SizeBytes {
		t.Fatalf("hit snapshot = %+v", hit)
	}

	// Deleting a header triggers main compensation on the next access.
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Header").Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if _, info, err := e.mgr.Execute(q, CachedNoPruning); err != nil || !info.CacheHit || info.MainCompensated == 0 {
		t.Fatalf("compensated execution: info=%+v err=%v", info, err)
	}
	snap = led.Snapshot()
	comp := snap[3]
	if comp.Kind != obs.DecisionCompensate || comp.Reason != "persist" || comp.Rows == 0 {
		t.Fatalf("compensate decision = %+v", comp)
	}

	// A merge folds the accumulated delta into the entry.
	e.insertObject(t, 2014, 5)
	if _, _, err := e.mgr.Execute(q, CachedNoPruning); err != nil {
		t.Fatal(err)
	}
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	snap = led.Snapshot()
	last := snap[len(snap)-1]
	if last.Kind != obs.DecisionFold || last.Reason != "online" {
		t.Fatalf("fold decision = %+v", last)
	}

	// Uncached executions make no cache decision.
	before := led.Seq()
	if _, _, err := e.mgr.Execute(q, Uncached); err != nil {
		t.Fatal(err)
	}
	if led.Seq() != before {
		t.Fatal("uncached execution recorded a decision")
	}

	// cache.decisions counts exactly the ledger records.
	if got := counterValue(t, reg, "cache.decisions"); got != led.Seq() {
		t.Fatalf("cache.decisions = %d, ledger seq = %d", got, led.Seq())
	}
}

// counterValue reads one counter out of a registry snapshot.
func counterValue(t testing.TB, reg *obs.Registry, name string) int64 {
	t.Helper()
	return reg.Snapshot().Counters[name]
}

// TestLedgerEvictionReasonsAndRegret: evictions carry their reason (stale
// victims first, then min-profit, then capacity), the per-reason counters
// and /debug/cache accounting agree, and a miss on an evicted key is flagged
// as a ledger-predicted regret.
func TestLedgerEvictionReasonsAndRegret(t *testing.T) {
	var buf bytes.Buffer
	e, led, reg := ledgerEnv(t, Config{Events: obs.NewEventLog(&buf)})
	e.insertObject(t, 2013, 10, 20)
	e.insertObject(t, 2014, 5)
	e.db.MergeTablesOnline(false, "Header", "Item")

	qJoin, qHeader := joinQuery(), headerOnlyQuery()
	for _, q := range []*query.Query{qJoin, qHeader} {
		if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
			t.Fatal(err)
		}
	}
	join, _ := e.mgr.Entry(qJoin)
	header, _ := e.mgr.Entry(qHeader)
	if join == nil || header == nil {
		t.Fatal("entries missing")
	}

	// A stale entry evicts before any live one, whatever the profits say.
	e.mgr.mu.Lock()
	e.mgr.markStale(join, "test")
	join.Metrics.MainExecTime = time.Hour // would out-profit header if not stale
	header.Metrics.MainExecTime = time.Millisecond
	e.mgr.cfg.CapacityBytes = join.Metrics.SizeBytes + header.Metrics.SizeBytes - 1
	e.mgr.evictOverCapacity()
	e.mgr.mu.Unlock()
	if _, ok := e.mgr.Entry(qJoin); ok {
		t.Fatal("stale entry survived capacity pressure")
	}
	if got := e.mgr.EvictionsByReason(); got[EvictStale] != 1 {
		t.Fatalf("evictions by reason = %v, want one %q", got, EvictStale)
	}
	if got := counterValue(t, reg, "cache.evictions_stale"); got != 1 {
		t.Fatalf("cache.evictions_stale = %d, want 1", got)
	}

	// Lift the capacity limit so the re-fetch readmits without evicting
	// anything else; the ghost verdict is about the past eviction.
	e.mgr.mu.Lock()
	e.mgr.cfg.CapacityBytes = 0
	e.mgr.mu.Unlock()

	// The miss that re-fetches the evicted key is a regret.
	_, info, err := e.mgr.Execute(qJoin, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheHit || info.Regret <= 0 {
		t.Fatalf("re-fetch after eviction: info=%+v, want regret > 0", info)
	}
	if got := counterValue(t, reg, "cache.regret_hits"); got != 1 {
		t.Fatalf("cache.regret_hits = %d, want 1", got)
	}
	var evict, regretMiss *obs.Decision
	for _, d := range led.Snapshot() {
		d := d
		switch {
		case d.Kind == obs.DecisionEvict && evict == nil:
			evict = &d
		case d.Kind == obs.DecisionMiss && d.RegretX > 0:
			regretMiss = &d
		}
	}
	if evict == nil || evict.Reason != EvictStale {
		t.Fatalf("evict decision = %+v, want reason %q", evict, EvictStale)
	}
	if regretMiss == nil || regretMiss.RegretX != info.Regret {
		t.Fatalf("regret miss decision = %+v, want RegretX = %g", regretMiss, info.Regret)
	}
	// One regret per eviction: the next miss on the key is not a regret.
	e.mgr.mu.Lock()
	ghosts := len(e.mgr.ghost)
	e.mgr.mu.Unlock()
	if ghosts != 0 {
		t.Fatalf("ghost list holds %d keys after regret, want 0", ghosts)
	}

	// Min-profit and capacity reasons on live victims.
	reFetch := func(q *query.Query) *Entry {
		t.Helper()
		if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
			t.Fatal(err)
		}
		en, _ := e.mgr.Entry(q)
		if en == nil {
			t.Fatal("entry not readmitted")
		}
		return en
	}
	join = reFetch(qJoin)
	e.mgr.mu.Lock()
	join.Metrics.MainExecTime = time.Nanosecond // profit ~ 0
	e.mgr.cfg.MinProfit = 1e6
	e.mgr.cfg.CapacityBytes = 1
	e.mgr.evictOverCapacity()
	e.mgr.mu.Unlock()
	if got := e.mgr.EvictionsByReason(); got[EvictMinProfit] == 0 {
		t.Fatalf("evictions by reason = %v, want a %q eviction", got, EvictMinProfit)
	}

	// With the threshold lifted, the same pressure evicts a live, admissible
	// entry for capacity alone.
	e.mgr.mu.Lock()
	e.mgr.cfg.MinProfit, e.mgr.cfg.CapacityBytes = 0, 0
	e.mgr.mu.Unlock()
	reFetch(qHeader)
	e.mgr.mu.Lock()
	e.mgr.cfg.CapacityBytes = 1
	e.mgr.evictOverCapacity()
	e.mgr.mu.Unlock()
	if got := e.mgr.EvictionsByReason(); got[EvictCapacity] == 0 {
		t.Fatalf("evictions by reason = %v, want a %q eviction", got, EvictCapacity)
	}

	dbg := e.mgr.CacheDebug()
	if dbg.Evictions == 0 || dbg.EvictionsByReason[EvictStale] != 1 || dbg.LedgerSeq != led.Seq() {
		t.Fatalf("CacheDebug = %+v", dbg)
	}

	// Every eviction, whatever its reason, was announced once to each
	// subscriber — as were the admissions and the invalidation behind them.
	assertSeamContract(t, parseEvents(t, &buf), reg, led, map[obs.DecisionKind][]string{
		obs.DecisionAdmit:      nil,
		obs.DecisionInvalidate: {"test"},
		obs.DecisionEvict:      {EvictStale, EvictMinProfit, EvictCapacity},
	})
}

// TestLedgerRejectDecision: an admission denial leaves a reject decision
// carrying the reason, and the built entry is not cached.
func TestLedgerRejectDecision(t *testing.T) {
	e, led, reg := ledgerEnv(t, Config{MinProfit: 1e18})
	e.insertObject(t, 2013, 10, 20)
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := headerOnlyQuery()
	_, info, err := e.mgr.Execute(q, CachedNoPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.Admitted {
		t.Fatal("entry admitted against a prohibitive MinProfit")
	}
	if _, ok := e.mgr.Entry(q); ok {
		t.Fatal("rejected entry cached")
	}
	snap := led.Snapshot()
	want := []obs.DecisionKind{obs.DecisionReject, obs.DecisionMiss}
	if !kindsEqual(kinds(snap), want) {
		t.Fatalf("kinds = %v, want %v", kinds(snap), want)
	}
	if snap[0].Reason != "min-profit" || snap[0].SizeBytes == 0 {
		t.Fatalf("reject decision = %+v", snap[0])
	}
	// The miss access record has no resident entry to snapshot.
	if snap[1].CacheEntries != 0 || snap[1].Strategy != CachedNoPruning.String() {
		t.Fatalf("miss after reject = %+v", snap[1])
	}
	if got := counterValue(t, reg, "cache.rejections"); got != 1 {
		t.Fatalf("cache.rejections = %d, want 1", got)
	}
}

// TestLedgerCountersInProm: the ledger-derived rate counters (decisions,
// rejections, regrets, per-reason evictions) reach the Prometheus exposition
// under the event-log naming convention.
func TestLedgerCountersInProm(t *testing.T) {
	e, _, reg := ledgerEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := headerOnlyQuery()
	for i := 0; i < 2; i++ {
		if _, _, err := e.mgr.Execute(q, CachedNoPruning); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	obs.WriteProm(&sb, reg.Snapshot())
	for _, want := range []string{
		"# TYPE aggcache_cache_hits counter",
		"# TYPE aggcache_cache_misses counter",
		"# TYPE aggcache_cache_admissions counter",
		"# TYPE aggcache_cache_decisions counter",
		"# TYPE aggcache_cache_rejections counter",
		"# TYPE aggcache_cache_regret_hits counter",
		"# TYPE aggcache_cache_evictions_capacity counter",
		"# TYPE aggcache_cache_evictions_stale counter",
		"# TYPE aggcache_cache_evictions_min_profit counter",
		"aggcache_cache_decisions 3",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestLedgerHitPathAllocs is the acceptance-criteria guard: recording the
// hit decision must add zero allocations to the query hot path. Measured
// differentially — the same warmed cache hit with the ledger enabled and
// disabled must allocate identically.
func TestLedgerHitPathAllocs(t *testing.T) {
	measure := func(cfg Config) float64 {
		e := newEnv(t, cfg)
		e.insertObject(t, 2013, 10, 20)
		e.db.MergeTablesOnline(false, "Header", "Item")
		q := headerOnlyQuery()
		if _, info, err := e.mgr.Execute(q, CachedFullPruning); err != nil || !info.Admitted {
			t.Fatalf("warm-up: info=%+v err=%v", info, err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, info, err := e.mgr.Execute(q, CachedFullPruning); err != nil || !info.CacheHit {
				t.Fatalf("hit path: info=%+v err=%v", info, err)
			}
		})
	}
	off := measure(Config{Metrics: obs.NewRegistry()})
	on := measure(Config{Metrics: obs.NewRegistry(), Ledger: obs.NewLedger(0)})
	if on != off {
		t.Fatalf("ledger adds allocations to the hit path: %.1f with, %.1f without", on, off)
	}
}
