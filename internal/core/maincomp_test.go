package core_test

import (
	"testing"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/workload"
)

// mainCompERP builds the 200 000-row ERP (20 000 headers of 10 items),
// deletes its first deletes items in committed transactions, and warms an
// entry of the profit query over it.
func mainCompERP(b *testing.B, deletes int) (*workload.ERP, *core.Manager, *query.Query) {
	b.Helper()
	erp, err := workload.BuildERP(workload.ERPConfig{
		Headers: 20000, ItemsPerHeader: 10, Categories: 200,
		Languages: []string{"ENG", "GER"}, Years: 5, BaseYear: 2010, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for id := int64(1); id <= int64(deletes); id++ {
		deleteItem(b, erp, id)
	}
	mgr := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	q := erp.ProfitQuery(2013, "ENG")
	if _, info, err := mgr.Execute(q, core.CachedFullPruning); err != nil || !info.Admitted {
		b.Fatalf("warm-up: %+v, %v", info, err)
	}
	return erp, mgr, q
}

func deleteItem(b *testing.B, erp *workload.ERP, id int64) {
	tx := erp.DB.Txns().Begin()
	if err := erp.DB.MustTable(workload.TItem).Delete(tx, id); err != nil {
		b.Fatal(err)
	}
	tx.Commit()
}

// BenchmarkMainCompensation times main compensation alone, as a cache hit
// of the ERP profit query runs it over a 200 000-row Item main: with
// nothing invalidated since the entry was built, with one committed Delete
// of a main item per iteration (outside the timer), and with 1 000
// invalidations logged before the entry was built and none since.
func BenchmarkMainCompensation(b *testing.B) {
	erp, mgr, q := mainCompERP(b, 0)
	b.Run("none", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if n := mgr.MainCompensateForBench(q); n != 0 {
				b.Fatalf("%d rows compensated, want 0", n)
			}
		}
	})
	next := int64(1)
	b.Run("delete-each", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			b.StopTimer()
			deleteItem(b, erp, next)
			next++
			b.StartTimer()
			if n := mgr.MainCompensateForBench(q); n != 1 {
				b.Fatalf("%d rows compensated, want 1", n)
			}
		}
	})
	_, mgr, q = mainCompERP(b, 1000)
	b.Run("1000-before", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if n := mgr.MainCompensateForBench(q); n != 0 {
				b.Fatalf("%d rows compensated, want 0", n)
			}
		}
	})
}
