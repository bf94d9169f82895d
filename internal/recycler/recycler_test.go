package recycler_test

import (
	"fmt"
	"reflect"
	"testing"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/recycler"
	"aggcache/internal/workload"
)

// buildERP constructs the shared ERP fixture with non-empty deltas so the
// delta-compensation union carries real subjoin work for the recycler to
// capture.
func buildERP(t *testing.T) (*workload.ERP, workload.ERPConfig) {
	t.Helper()
	cfg := workload.ERPConfig{
		Headers:        300,
		ItemsPerHeader: 4,
		Categories:     12,
		Languages:      []string{"ENG", "GER"},
		Years:          3,
		BaseYear:       2012,
		Seed:           1,
	}
	erp, err := workload.BuildERP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := erp.InsertBusinessObjects(40); err != nil {
		t.Fatal(err)
	}
	return erp, cfg
}

func newRecycledManager(erp *workload.ERP, workers int) (*core.Manager, *recycler.Cache) {
	rc := recycler.New(recycler.Config{Metrics: obs.NewRegistry()})
	m := core.NewManager(erp.DB, erp.Reg, core.Config{
		Workers:  workers,
		Recycler: rc,
		Metrics:  obs.NewRegistry(),
	})
	return m, rc
}

func render(a *query.AggTable) string { return fmt.Sprintf("%+v", a.Rows()) }

// TestRecyclerReuseAndTopup drives the full cross-query lifecycle — miss,
// admission, exact hit, watermark top-up — at one and four workers in
// lockstep, asserting byte-identical results against an uncached oracle and
// identical Stats between worker counts at every step.
func TestRecyclerReuseAndTopup(t *testing.T) {
	erp, cfg := buildERP(t)
	oracle := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	m1, rc1 := newRecycledManager(erp, 1)
	m4, rc4 := newRecycledManager(erp, 4)
	q := erp.ProfitQuery(cfg.BaseYear+1, "ENG")

	// step executes the query on both recycled managers, checks both against
	// the oracle and each other, and returns the single-worker Stats.
	step := func(name string) query.Stats {
		t.Helper()
		want, _, err := oracle.Execute(q, core.Uncached)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		a1, info1, err := m1.Execute(q, core.CachedNoPruning)
		if err != nil {
			t.Fatalf("%s: workers=1: %v", name, err)
		}
		a4, info4, err := m4.Execute(q, core.CachedNoPruning)
		if err != nil {
			t.Fatalf("%s: workers=4: %v", name, err)
		}
		if got, exp := render(a1), render(want); got != exp {
			t.Fatalf("%s: workers=1 rows diverge from oracle:\n got %s\nwant %s", name, got, exp)
		}
		if got, exp := render(a4), render(want); got != exp {
			t.Fatalf("%s: workers=4 rows diverge from oracle:\n got %s\nwant %s", name, got, exp)
		}
		if !reflect.DeepEqual(info1.Stats, info4.Stats) {
			t.Fatalf("%s: Stats diverge across workers:\n w=1 %+v\n w=4 %+v", name, info1.Stats, info4.Stats)
		}
		return info1.Stats
	}

	// Cold execution: every lookup misses, completions admit the partials
	// (the miss path still delta-compensates, which is the recycler's regime).
	if st := step("miss"); st.RecycledSubjoins != 0 || st.RecycledTopups != 0 {
		t.Fatalf("cold execution recycled: %+v", st)
	}
	if rc1.Debug().Entries == 0 {
		t.Fatal("no partials admitted after first delta compensation")
	}
	// Cache hit: the same subjoins are served from the recycler. Clearing
	// the aggregate caches makes the repeat compensate again instead of
	// serving the entries' result memos; the recyclers keep their partials.
	m1.Clear()
	m4.Clear()
	if st := step("hit"); st.RecycledSubjoins == 0 {
		t.Fatalf("expected recycled subjoins on repeat execution: %+v", st)
	}
	// Appends advance the watermark without invalidating anything, so the
	// next execution tops up the partials over only the new rows.
	if err := erp.InsertBusinessObjects(10); err != nil {
		t.Fatal(err)
	}
	if st := step("topup"); st.RecycledTopups == 0 {
		t.Fatalf("expected watermark top-ups after appends: %+v", st)
	}
	// And once topped up, the advanced watermark serves exact hits again.
	m1.Clear()
	m4.Clear()
	if st := step("re-hit"); st.RecycledSubjoins == 0 {
		t.Fatalf("expected exact hits after top-up advanced the watermark: %+v", st)
	}
	if d := rc4.Debug(); d.Hits == 0 {
		t.Fatalf("four-worker recycler recorded no hits: %+v", d)
	}
}

// TestRecyclerExactHitZeroAlloc pins the steady-state exact-hit lookup at
// zero heap allocations: the key is built in a reused buffer, the map probe
// uses the compiler's []byte-to-string lookup optimization, and the verdict
// carries only the cached pointer.
func TestRecyclerExactHitZeroAlloc(t *testing.T) {
	erp, cfg := buildERP(t)
	m, rc := newRecycledManager(erp, 1)
	q := erp.ProfitQuery(cfg.BaseYear+1, "ENG")
	for i := 0; i < 2; i++ { // admit on the cold run, then hit
		if _, _, err := m.Execute(q, core.CachedNoPruning); err != nil {
			t.Fatal(err)
		}
	}
	snap := erp.DB.Txns().ReadSnapshot()
	var hit query.Combo
	found := false
	for _, c := range query.AllCombos(erp.DB, q) {
		if rc.Lookup(q, c, snap, erp.DB).Kind == recycler.Hit {
			hit, found = c, true
			break
		}
	}
	if !found {
		t.Fatal("no exact-hit combo found after admission")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if v := rc.Lookup(q, hit, snap, erp.DB); v.Kind != recycler.Hit {
			t.Fatalf("lookup degraded to %v mid-run", v.Kind)
		}
	})
	if allocs != 0 {
		t.Fatalf("exact-hit Lookup allocates %.1f times per run, want 0", allocs)
	}
}

// TestRecyclerResultNotAliased asserts that mutating a query result cannot
// corrupt the recycled partials it was seeded from: AggTable.Merge copies
// group state, so the cache hands out values, never shared storage.
func TestRecyclerResultNotAliased(t *testing.T) {
	erp, cfg := buildERP(t)
	oracle := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	m, _ := newRecycledManager(erp, 1)
	q := erp.ProfitQuery(cfg.BaseYear+1, "ENG")
	var a *query.AggTable
	var st query.Stats
	for i := 0; i < 3; i++ { // admit cold, then recycled hits
		// Clearing the aggregate cache makes each repeat compensate through
		// the recycler instead of serving the entry's result memo.
		m.Clear()
		res, info, err := m.Execute(q, core.CachedNoPruning)
		if err != nil {
			t.Fatal(err)
		}
		a, st = res, info.Stats
	}
	if st.RecycledSubjoins == 0 {
		t.Fatalf("third execution not recycled: %+v", st)
	}
	a.Merge(a) // double every aggregate in the caller's copy
	want, _, err := oracle.Execute(q, core.Uncached)
	if err != nil {
		t.Fatal(err)
	}
	// The first repeat is served from the entry's result memo, which must
	// not share storage with the mutated result either; the second, after
	// a Clear, is seeded from the recycled partials.
	for _, clear := range []bool{false, true} {
		if clear {
			m.Clear()
		}
		got, info, err := m.Execute(q, core.CachedNoPruning)
		if err != nil {
			t.Fatal(err)
		}
		if info.MemoHit == clear {
			t.Fatalf("clear=%v: memo hit = %v", clear, info.MemoHit)
		}
		if render(got) != render(want) {
			t.Fatalf("mutating a result corrupted the cache (clear=%v):\n got %s\nwant %s", clear, render(got), render(want))
		}
	}
}

// TestRecyclerKeepsOwnCopy admits non-empty partials, runs other queries
// whose jobs reuse the executor's pooled result tables the admitted
// partials were computed in, and requires the recycled hit to stay exact:
// the cache stores a copy, never the pooled table.
func TestRecyclerKeepsOwnCopy(t *testing.T) {
	erp, cfg := buildERP(t)
	oracle := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	m, rc := newRecycledManager(erp, 1)
	// The appended objects fall in the last fiscal year, so its delta
	// subjoins have groups.
	q := erp.ProfitQuery(cfg.BaseYear+cfg.Years-1, "ENG")
	if _, _, err := m.Execute(q, core.CachedNoPruning); err != nil {
		t.Fatal(err)
	}
	groups := 0
	for _, p := range rc.Debug().Partials {
		groups += p.Groups
	}
	if groups == 0 {
		t.Fatal("no admitted partial has groups; the test proves nothing")
	}
	// recheck runs other queries, then q again, which must recycle and match
	// the oracle.
	recheck := func(name string) query.Stats {
		t.Helper()
		// Clearing the aggregate cache makes every execution below
		// compensate again — through the pooled tables, then the recycler —
		// instead of serving an entry's result memo.
		m.Clear()
		for _, lang := range []string{"GER", "ENG"} {
			if _, _, err := m.Execute(erp.ProfitQuery(cfg.BaseYear, lang), core.CachedNoPruning); err != nil {
				t.Fatal(err)
			}
		}
		got, info, err := m.Execute(q, core.CachedNoPruning)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := oracle.Execute(q, core.Uncached)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Fatalf("%s: recycled partials changed with the executor's pooled tables:\n got %s\nwant %s", name, render(got), render(want))
		}
		return info.Stats
	}
	if st := recheck("admitted"); st.RecycledSubjoins == 0 {
		t.Fatalf("repeat execution not recycled: %+v", st)
	}
	if err := erp.InsertBusinessObjects(10); err != nil {
		t.Fatal(err)
	}
	if st := recheck("topped up"); st.RecycledTopups == 0 {
		t.Fatalf("no top-up after appends: %+v", st)
	}
	if st := recheck("after top-up"); st.RecycledSubjoins == 0 {
		t.Fatalf("topped-up partials not recycled: %+v", st)
	}
}

// TestRecyclerInvalidateOnMerge asserts the merge hooks drop partials whose
// stores a delta merge retires, and that post-merge executions are correct.
func TestRecyclerInvalidateOnMerge(t *testing.T) {
	erp, cfg := buildERP(t)
	oracle := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	m, rc := newRecycledManager(erp, 2)
	q := erp.ProfitQuery(cfg.BaseYear+1, "ENG")
	for i := 0; i < 3; i++ {
		if _, _, err := m.Execute(q, core.CachedNoPruning); err != nil {
			t.Fatal(err)
		}
	}
	if rc.Debug().Entries == 0 {
		t.Fatal("no partials admitted before merge")
	}
	if err := erp.DB.MergeTablesOnline(false, workload.THeader, workload.TItem); err != nil {
		t.Fatal(err)
	}
	if d := rc.Debug(); d.Invalidations == 0 {
		t.Fatalf("merge hooks invalidated nothing: %+v", d)
	}
	got, _, err := m.Execute(q, core.CachedNoPruning)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := oracle.Execute(q, core.Uncached)
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatalf("post-merge execution diverges:\n got %s\nwant %s", render(got), render(want))
	}
}
