package core_test

import (
	"runtime"
	"testing"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/workload"
)

// memoHitERP builds an ERP database whose profit query for its one fiscal
// year has about the given number of groups (one per product category), a
// manager over it, and the query, warmed so that the next Execute is a memo
// hit.
func memoHitERP(tb testing.TB, categories, headers int) (*core.Manager, *query.Query) {
	tb.Helper()
	erp, err := workload.BuildERP(workload.ERPConfig{
		Headers: headers, ItemsPerHeader: 10, Categories: categories,
		Languages: []string{"ENG", "GER"}, Years: 1, BaseYear: 2013, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	mgr := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	q := erp.ProfitQuery(2013, "ENG")
	warmMemo(tb, mgr, q)
	return mgr, q
}

// warmMemo executes q until it is served as a memo hit.
func warmMemo(tb testing.TB, mgr *core.Manager, q *query.Query) {
	tb.Helper()
	for range 2 {
		if _, _, err := mgr.Execute(q, core.CachedFullPruning); err != nil {
			tb.Fatal(err)
		}
	}
	if _, info, err := mgr.Execute(q, core.CachedFullPruning); err != nil || !info.MemoHit {
		tb.Fatalf("warm read is not a memo hit: %+v, %v", info, err)
	}
}

// TestMemoHitAllocs guards the cost of a memo hit, the read every repeated
// query with no write in between takes: one allocation (the served table's
// header), the same at about 20 and about 2 000 groups. The clone shares
// the memo's arrays, the snapshot pin allocates nothing, and the freshness
// check walks table handles resolved when the entry was built.
func TestMemoHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("workload build in -short mode")
	}
	var allocs, bytes [2]float64
	var groups [2]int
	for i, size := range []struct{ categories, headers int }{{20, 200}, {2000, 1500}} {
		mgr, q := memoHitERP(t, size.categories, size.headers)
		hit := func() {
			res, info, err := mgr.Execute(q, core.CachedFullPruning)
			if err != nil || !info.MemoHit {
				t.Fatalf("not a memo hit: %+v, %v", info, err)
			}
			groups[i] = res.Groups()
		}
		allocs[i] = testing.AllocsPerRun(100, hit)
		bytes[i] = bytesPerRun(100, hit)
	}
	if groups[0] < 15 || groups[1] < 1500 {
		t.Fatalf("fixture groups %v, want about 20 and 2000", groups)
	}
	if allocs[0] > 1 || allocs[1] != allocs[0] || bytes[1] != bytes[0] {
		t.Fatalf("a memo hit allocates %v objects / %v B at %d groups and %v / %v B at %d; want at most 1, the same at both",
			allocs[0], bytes[0], groups[0], allocs[1], bytes[1], groups[1])
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// one call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// BenchmarkMemoHit times the cache-lookup layer on its fast path: a warm
// memo hit through Manager.Execute (pin, entry lock, freshness check per
// table, the served clone, accounting), for the ERP profit query at the
// erp-hit shape's 200 groups and for CH-benCHmark Q5 and Q9.
func BenchmarkMemoHit(b *testing.B) {
	erpMgr, erpQ := memoHitERP(b, 200, 2000)
	cfg := workload.DefaultCHConfig()
	cfg.Orders = 2000
	ch, err := workload.BuildCH(cfg)
	if err != nil {
		b.Fatal(err)
	}
	chMgr := core.NewManager(ch.DB, ch.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	cases := []struct {
		name string
		mgr  *core.Manager
		q    *query.Query
	}{
		{"erp-profit", erpMgr, erpQ},
		{"ch-q5", chMgr, ch.Q5()},
		{"ch-q9", chMgr, ch.Q9()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			warmMemo(b, c.mgr, c.q)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, _, err := c.mgr.Execute(c.q, core.CachedFullPruning); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
