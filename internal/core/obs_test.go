package core

import (
	"strings"
	"sync"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/obs"
)

// TestExplainAnalyzeVerdictsMatchStats is the acceptance-criteria check:
// the span tree of a traced execution must carry one verdict per subjoin
// combination, and the verdict totals must equal the query.Stats counters
// the execution reports.
func TestExplainAnalyzeVerdictsMatchStats(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20, 30)
	e.insertObject(t, 2014, 5)
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	// Pending delta rows so delta compensation has real subjoins to prune
	// and execute.
	e.insertObject(t, 2014, 7, 9)
	q := joinQuery()

	for _, strat := range []Strategy{CachedNoPruning, CachedEmptyDelta, CachedFullPruning} {
		// Warm the entry so the traced run is a cache hit.
		if _, _, err := e.mgr.Execute(q, strat); err != nil {
			t.Fatal(err)
		}
		res, info, sp, err := e.mgr.ExplainAnalyze(q, strat)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil || sp == nil {
			t.Fatal("nil result or span")
		}
		if !info.CacheHit {
			t.Fatalf("%v: traced run should hit the cache", strat)
		}

		counts := map[string]int{}
		pushdowns := 0
		sp.Walk(func(s *obs.Span) {
			if v, ok := s.GetAttr("verdict"); ok && v != "hit" && v != "miss" && v != "stale" && v != "bypass" {
				counts[v]++
			}
			for _, a := range s.Attrs {
				if strings.HasPrefix(a.Key, "pushdown.") {
					pushdowns++
					break
				}
			}
		})
		st := info.Stats
		// A dictionary-pruned subjoin is counted in both Executed and
		// PrunedScan by the stats contract; span verdicts are disjoint.
		if got, want := counts["executed"], st.Executed-st.PrunedScan; got != want {
			t.Errorf("%v: executed verdicts = %d, stats say %d", strat, got, want)
		}
		if got := counts["pruned-scan"]; got != st.PrunedScan {
			t.Errorf("%v: pruned-scan verdicts = %d, stats say %d", strat, got, st.PrunedScan)
		}
		if got := counts["pruned-empty"]; got != st.PrunedEmpty {
			t.Errorf("%v: pruned-empty verdicts = %d, stats say %d", strat, got, st.PrunedEmpty)
		}
		if got := counts["pruned-md"]; got != st.PrunedMD {
			t.Errorf("%v: pruned-md verdicts = %d, stats say %d", strat, got, st.PrunedMD)
		}
		if pushdowns != st.Pushdowns {
			t.Errorf("%v: pushdown spans = %d, stats say %d", strat, pushdowns, st.Pushdowns)
		}
		total := counts["executed"] + counts["pruned-scan"] + counts["pruned-empty"] + counts["pruned-md"]
		if total != st.Subjoins {
			t.Errorf("%v: %d verdicts for %d considered subjoins", strat, total, st.Subjoins)
		}
	}

	// Full pruning on this MD-covered join must actually prune something,
	// otherwise the test is vacuous.
	_, info, sp, err := e.mgr.ExplainAnalyze(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.PrunedMD == 0 {
		t.Fatalf("expected MD pruning on the ERP join, stats = %+v", info.Stats)
	}
	var sb strings.Builder
	sp.Render(&sb)
	out := sb.String()
	for _, want := range []string{"cache-lookup", "verdict=hit", "delta-compensation", "pruned-md"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, out)
		}
	}
}

// TestUncachedTrace checks the Uncached strategy traces through
// ExecuteAllSpan: every subjoin gets a span under execute-all.
func TestUncachedTrace(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	_, info, sp, err := e.mgr.ExplainAnalyze(joinQuery(), Uncached)
	if err != nil {
		t.Fatal(err)
	}
	combos := 0
	sp.Walk(func(s *obs.Span) {
		if strings.Contains(s.Name, " x ") {
			combos++
		}
	})
	if combos != info.Stats.Subjoins {
		t.Fatalf("%d combo spans for %d subjoins", combos, info.Stats.Subjoins)
	}
}

// TestManagerMetricsRegistry checks the registry wiring: executions update
// the injected registry's counters in step with ExecInfo, and gauges track
// the cache footprint.
func TestManagerMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEnv(t, Config{Metrics: reg})
	e.insertObject(t, 2013, 10, 20)
	q := joinQuery()

	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cache.misses").Value(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if got := reg.Counter("cache.admissions").Value(); got != 1 {
		t.Fatalf("admissions = %d, want 1", got)
	}
	_, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cache.hits").Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := reg.Counter("subjoins.considered").Value(); got < int64(info.Stats.Subjoins) {
		t.Fatalf("subjoins.considered = %d, want >= %d", got, info.Stats.Subjoins)
	}
	if got := reg.Histogram("latency.query").Count(); got != 2 {
		t.Fatalf("latency.query count = %d, want 2", got)
	}
	if got := reg.Gauge("cache.entries").Value(); got != 1 {
		t.Fatalf("cache.entries gauge = %d, want 1", got)
	}
	if got, want := reg.Gauge("cache.bytes").Value(), int64(e.mgr.SizeBytes()); got != want {
		t.Fatalf("cache.bytes gauge = %d, want %d", got, want)
	}

	// Merge maintenance reports through the same registry.
	e.insertObject(t, 2014, 5)
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cache.maintenances").Value(); got == 0 {
		t.Fatal("merge did not record a maintenance")
	}

	snap := reg.Snapshot()
	if snap.Counters["cache.hits"] != 1 {
		t.Fatalf("snapshot hits = %d", snap.Counters["cache.hits"])
	}
}

// TestEntriesByProfit checks the introspection snapshot: entries come back
// sorted by profit with metrics copied out.
func TestEntriesByProfit(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	jq, hq := joinQuery(), headerOnlyQuery()
	for i := 0; i < 3; i++ {
		if _, _, err := e.mgr.Execute(jq, CachedFullPruning); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := e.mgr.Execute(hq, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	snaps := e.mgr.EntriesByProfit()
	if len(snaps) != 2 {
		t.Fatalf("got %d entries, want 2", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].Profit < snaps[i].Profit {
			t.Fatalf("entries not sorted by profit: %v", snaps)
		}
	}
	m, ok := e.mgr.EntryMetrics(jq)
	if !ok || m.Hits != 2 {
		t.Fatalf("EntryMetrics(joinQuery) = %+v, %v; want 2 hits", m, ok)
	}
}

// TestEntryMetricsRace audits the Entry.Metrics locking invariant under
// -race: concurrent executions mutating Hits/LastAccess/DirtyCounter race
// against introspection snapshots and a writer driving merges.
func TestEntryMetricsRace(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}

	const iterations = 50
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			_ = e.mgr.EntriesByProfit()
			_, _ = e.mgr.EntryMetrics(q)
			_ = e.mgr.Metrics().Snapshot()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		hdr := e.db.MustTable("Header")
		for i := 0; i < iterations/5; i++ {
			// Writers take the exclusive lock per the engine contract.
			e.db.Lock()
			tx := e.db.Txns().Begin()
			hid := int64(100000 + i)
			_, err := hdr.Insert(tx, []column.Value{
				column.IntV(hid), column.IntV(2014), column.IntV(int64(tx.ID())),
			})
			if err != nil {
				tx.Abort()
				e.db.Unlock()
				errs <- err
				return
			}
			tx.Commit()
			e.db.Unlock()
			if err := e.db.MergeTablesOnline(false, "Header"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
