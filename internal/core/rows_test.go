package core

import (
	"sort"
	"testing"
	"time"

	"aggcache/internal/obs"
	"aggcache/internal/query"
)

// sortRows orders result rows by encoded group key for comparison.
func sortRows(rows []query.Row) {
	sort.Slice(rows, func(i, j int) bool {
		return query.EncodeGroupKey(rows[i].Keys) < query.EncodeGroupKey(rows[j].Keys)
	})
}

func assertRowsEqualTable(t *testing.T, rows []query.Row, table *query.AggTable) {
	t.Helper()
	want := table.Rows()
	sortRows(rows)
	if len(rows) != len(want) {
		t.Fatalf("row counts differ: got %d, want %d\n got %+v\nwant %+v", len(rows), len(want), rows, want)
	}
	for i := range want {
		if query.EncodeGroupKey(rows[i].Keys) != query.EncodeGroupKey(want[i].Keys) {
			t.Fatalf("row %d keys differ: %v vs %v", i, rows[i].Keys, want[i].Keys)
		}
		if rows[i].Count != want[i].Count {
			t.Fatalf("row %d count differs: %d vs %d", i, rows[i].Count, want[i].Count)
		}
		for a := range want[i].Aggs {
			d := rows[i].Aggs[a].Float() - want[i].Aggs[a].Float()
			if d > 1e-6 || d < -1e-6 {
				t.Fatalf("row %d agg %d differs: %v vs %v", i, a, rows[i].Aggs[a], want[i].Aggs[a])
			}
		}
	}
}

func TestExecuteRowsMatchesExecute(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{Capacity: 64})
	e := newEnv(t, Config{Recorder: rec})
	e.insertObject(t, 2013, 10, 20)
	e.insertObject(t, 2012, 5)
	e.db.MergeTablesOnline(false, "Header", "Item")
	e.insertObject(t, 2013, 7, 8) // pending delta

	for _, q := range []*query.Query{joinQuery(), headerOnlyQuery()} {
		for _, s := range Strategies() {
			want, _, err := e.mgr.Execute(q, s)
			if err != nil {
				t.Fatal(err)
			}
			traces := len(rec.List())
			rows, _, err := e.mgr.ExecuteRows(q, s)
			if err != nil {
				t.Fatal(err)
			}
			assertRowsEqualTable(t, rows, want)
			// Rows mode rides the same serve path: flight-recorded like
			// Execute, and gone from the inflight gauge afterwards.
			if got := len(rec.List()); got != traces+1 {
				t.Fatalf("%s: ExecuteRows retained %d traces, want 1", s, got-traces)
			}
		}
	}
	if n := e.mgr.obs.inflight.Value(); n != 0 {
		t.Fatalf("exec.inflight = %d after all executions returned", n)
	}
}

func TestExecuteRowsAfterInvalidation(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10)
	e.insertObject(t, 2013, 4)
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := headerOnlyQuery()
	if _, _, err := e.mgr.ExecuteRows(q, CachedNoPruning); err != nil {
		t.Fatal(err)
	}
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Header").Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	rows, info, err := e.mgr.ExecuteRows(q, CachedNoPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.MainCompensated != 1 {
		t.Fatalf("info = %+v, want 1 compensated row", info)
	}
	want, _, _ := e.mgr.Execute(q, Uncached)
	assertRowsEqualTable(t, rows, want)
}

func TestExecuteRowsUncached(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10)
	rows, _, err := e.mgr.ExecuteRows(joinQuery(), Uncached)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := e.mgr.Execute(joinQuery(), Uncached)
	assertRowsEqualTable(t, rows, want)
}

func TestSizeAccountingInvariant(t *testing.T) {
	// The manager's byte total must always equal the sum over entries,
	// through compensation, maintenance, and rebuilds.
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	e.db.MergeTablesOnline(false, "Header", "Item")
	check := func(stage string) {
		t.Helper()
		var sum uint64
		for _, q := range []*query.Query{joinQuery(), headerOnlyQuery()} {
			if entry, ok := e.mgr.Entry(q); ok {
				sum += entry.Metrics.SizeBytes
			}
		}
		if got := e.mgr.SizeBytes(); got != sum {
			t.Fatalf("%s: SizeBytes = %d, entries sum to %d", stage, got, sum)
		}
	}
	e.mgr.Execute(joinQuery(), CachedFullPruning)
	e.mgr.Execute(headerOnlyQuery(), CachedNoPruning)
	check("after caching")

	e.insertObject(t, 2014, 3)
	e.db.MergeTablesOnline(false, "Header", "Item")
	check("after merge maintenance")

	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Header").Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	e.mgr.Execute(headerOnlyQuery(), CachedNoPruning) // main compensation
	e.mgr.Execute(joinQuery(), CachedFullPruning)     // rebuild
	check("after compensation and rebuild")
}

func TestEvictionPrefersLowProfit(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	e.insertObject(t, 2014, 5)
	e.db.MergeTablesOnline(false, "Header", "Item")

	qBig := joinQuery()         // larger value, expensive to build
	qSmall := headerOnlyQuery() // cheap
	if _, _, err := e.mgr.Execute(qBig, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	// Use the big entry repeatedly so its profit towers over qSmall's.
	for i := 0; i < 50; i++ {
		if _, _, err := e.mgr.Execute(qBig, CachedFullPruning); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := e.mgr.Execute(qSmall, CachedNoPruning); err != nil {
		t.Fatal(err)
	}
	big, _ := e.mgr.Entry(qBig)
	small, _ := e.mgr.Entry(qSmall)
	if big == nil || small == nil {
		t.Fatal("entries missing")
	}
	// Pin the wall-clock profit input to a workload-derived value (one
	// millisecond per aggregated main row) so the profit ordering is a pure
	// function of the workload: the big entry's 50 reuses then tower over
	// the one-shot entry at any machine speed.
	e.mgr.mu.Lock()
	big.Metrics.MainExecTime = time.Duration(big.Metrics.MainRows+1) * time.Millisecond
	small.Metrics.MainExecTime = time.Duration(small.Metrics.MainRows+1) * time.Millisecond
	e.mgr.mu.Unlock()
	if big.Metrics.Profit() <= small.Metrics.Profit() {
		t.Fatalf("profit ordering inverted (%.3g vs %.3g)",
			big.Metrics.Profit(), small.Metrics.Profit())
	}
	// Shrink capacity to hold only the bigger-profit entry.
	e.mgr.mu.Lock()
	e.mgr.cfg.CapacityBytes = big.Metrics.SizeBytes
	e.mgr.evictOverCapacity()
	e.mgr.mu.Unlock()
	if _, ok := e.mgr.Entry(qBig); !ok {
		t.Fatal("high-profit entry evicted")
	}
	if _, ok := e.mgr.Entry(qSmall); ok {
		t.Fatal("low-profit entry survived")
	}
}

func TestCacheSurvivesAging(t *testing.T) {
	// Aging moves rows between main stores; the cached all-main value is
	// unchanged and entries stay valid at their watermark. Main
	// compensation then finds a row the aging moved from the hot main into
	// the cold one.
	e := newEnvHotCold(t)
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	if err := e.db.AgeOnline("Header", 1<<40); err != nil { // everything cold
		t.Fatal(err)
	}
	if err := e.db.AgeOnline("Item", 1<<40); err != nil {
		t.Fatal(err)
	}
	got, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit || info.Rebuilt {
		t.Fatalf("info = %+v, want hit without rebuild after aging", info)
	}
	want, _, _ := e.mgr.Execute(q, Uncached)
	if !want.Equal(got) {
		t.Fatalf("aging broke the cache:\n got %+v\nwant %+v", got.Rows(), want.Rows())
	}
	// Item 4 belongs to a hot-era object.
	if ref, ok := e.db.MustTable("Item").LookupPK(4); !ok || ref.Part != 0 || !ref.InMain {
		t.Fatalf("item 4 after aging: %+v, %v; want a row of the cold main", ref, ok)
	}
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Item").Delete(tx, 4); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	got, info, err = e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit || info.MemoHit || info.Rebuilt || info.MainCompensated != 1 {
		t.Fatalf("info = %+v, want a compensated hit of one row", info)
	}
	want, _, _ = e.mgr.Execute(q, Uncached)
	if !want.Equal(got) {
		t.Fatalf("compensation after aging:\n got %+v\nwant %+v", got.Rows(), want.Rows())
	}
}
