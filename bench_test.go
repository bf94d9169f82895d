// Benchmarks reproducing the paper's evaluation (Sec. 6) as testing.B
// targets — one benchmark per table/figure, with sub-benchmarks per
// strategy. The cmd/benchrunner binary runs the same experiments as full
// parameter sweeps; these benchmarks measure the representative operation
// of each figure at one fixed configuration.
package aggcache_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/query"
	"aggcache/internal/workload"
)

// erpScenario lazily builds the shared ERP dataset used by the join
// benchmarks: mains loaded, a 10k-row item delta pending.
type erpScenario struct {
	once sync.Once
	erp  *workload.ERP
	mgr  *core.Manager
	q    *query.Query
	err  error
}

var joinScenario erpScenario

func (s *erpScenario) get(b *testing.B) (*workload.ERP, *core.Manager, *query.Query) {
	b.Helper()
	s.once.Do(func() {
		cfg := workload.DefaultERPConfig()
		cfg.Headers = 10000
		s.erp, s.err = workload.BuildERP(cfg)
		if s.err != nil {
			return
		}
		if s.err = s.erp.InsertBusinessObjects(1000); s.err != nil {
			return
		}
		s.mgr = core.NewManager(s.erp.DB, s.erp.Reg, core.Config{})
		s.q = s.erp.ProfitQuery(cfg.BaseYear+cfg.Years-1, cfg.Languages[0])
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.erp, s.mgr, s.q
}

// BenchmarkFig6MaintenanceStrategies measures the per-operation costs the
// Fig. 6 mixed workload is built from: a read and an insert under each
// maintenance strategy.
func BenchmarkFig6MaintenanceStrategies(b *testing.B) {
	cfg := workload.ERPConfig{
		Headers: 5000, ItemsPerHeader: 5, Categories: 100,
		Languages: []string{"ENG"}, Years: 3, Seed: 11,
	}
	newERP := func(b *testing.B) *workload.ERP {
		erp, err := workload.BuildERP(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return erp
	}
	insertItem := func(b *testing.B, erp *workload.ERP, view *core.MaterializedView) {
		row := erp.NewItemRow(1 + int64(b.N%cfg.Headers))
		tx := erp.DB.Txns().Begin()
		row[erp.ItemCol("TidItem")] = column.IntV(int64(tx.ID()))
		if err := erp.Reg.FillChildTIDs(workload.TItem, row); err != nil {
			b.Fatal(err)
		}
		if _, err := erp.DB.MustTable(workload.TItem).Insert(tx, row); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
		if view != nil {
			if err := view.OnInsert(row); err != nil {
				b.Fatal(err)
			}
		}
	}

	for _, mode := range []core.MaintenanceMode{core.Eager, core.Lazy} {
		b.Run(mode.String()+"/insert", func(b *testing.B) {
			erp := newERP(b)
			view, err := core.NewMaterializedView(erp.DB, erp.ItemRevenueQuery(), mode)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				insertItem(b, erp, view)
			}
		})
		b.Run(mode.String()+"/read", func(b *testing.B) {
			erp := newERP(b)
			view, err := core.NewMaterializedView(erp.DB, erp.ItemRevenueQuery(), mode)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := view.ReadRows(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("aggregate-cache/insert", func(b *testing.B) {
		erp := newERP(b)
		mgr := core.NewManager(erp.DB, erp.Reg, core.Config{})
		if _, _, err := mgr.Execute(erp.ItemRevenueQuery(), core.CachedNoPruning); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			insertItem(b, erp, nil)
		}
	})
	b.Run("aggregate-cache/read", func(b *testing.B) {
		erp := newERP(b)
		mgr := core.NewManager(erp.DB, erp.Reg, core.Config{})
		q := erp.ItemRevenueQuery()
		if _, _, err := mgr.Execute(q, core.CachedNoPruning); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := mgr.ExecuteRows(q, core.CachedNoPruning); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSec62MemoryOverhead builds the ERP dataset and reports the tid
// columns' share of the store footprint as custom metrics.
func BenchmarkSec62MemoryOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		erp, err := workload.BuildERP(workload.ERPConfig{
			Headers: 5000, ItemsPerHeader: 10, Categories: 200,
			Languages: []string{"ENG", "GER", "FRA"}, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		var total, tid uint64
		for name, cols := range map[string][]string{
			workload.THeader:   {"TidHeader"},
			workload.TItem:     {"TidItem", "TidHeader", "TidCategory"},
			workload.TCategory: {"TidCategory"},
		} {
			t := erp.DB.MustTable(name)
			isTID := map[int]bool{}
			for _, c := range cols {
				isTID[t.Schema().MustColIndex(c)] = true
			}
			for _, p := range t.Partitions() {
				for ci := range t.Schema().Cols {
					n := p.Main.Col(ci).MemBytes()
					total += n
					if isTID[ci] {
						tid += n
					}
				}
			}
		}
		b.ReportMetric(100*float64(tid)/float64(total-tid), "tid-overhead-%")
	}
}

// BenchmarkSec63InsertOverhead measures item inserts bare, with the
// referential-integrity lookup, and with full MD enforcement.
func BenchmarkSec63InsertOverhead(b *testing.B) {
	build := func(b *testing.B) *workload.ERP {
		erp, err := workload.BuildERP(workload.ERPConfig{
			Headers: 10000, ItemsPerHeader: 1, Categories: 100,
			Languages: []string{"ENG"}, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		return erp
	}
	b.Run("bare", func(b *testing.B) {
		erp := build(b)
		item := erp.DB.MustTable(workload.TItem)
		ti, th := erp.ItemCol("TidItem"), erp.ItemCol("TidHeader")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			row := erp.NewItemRow(1 + int64(i%10000))
			tx := erp.DB.Txns().Begin()
			row[ti] = column.IntV(int64(tx.ID()))
			row[th] = row[ti]
			if _, err := item.Insert(tx, row); err != nil {
				b.Fatal(err)
			}
			tx.Commit()
		}
	})
	b.Run("with-md-enforcement", func(b *testing.B) {
		erp := build(b)
		item := erp.DB.MustTable(workload.TItem)
		ti := erp.ItemCol("TidItem")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			row := erp.NewItemRow(1 + int64(i%10000))
			tx := erp.DB.Txns().Begin()
			row[ti] = column.IntV(int64(tx.ID()))
			if err := erp.Reg.FillChildTIDs(workload.TItem, row); err != nil {
				b.Fatal(err)
			}
			if _, err := item.Insert(tx, row); err != nil {
				b.Fatal(err)
			}
			tx.Commit()
		}
	})
}

// BenchmarkFig7JoinPruning measures the three-table profit query per
// strategy with a 10k-row item delta pending.
func BenchmarkFig7JoinPruning(b *testing.B) {
	_, mgr, q := joinScenario.get(b)
	for _, s := range core.Strategies() {
		b.Run(s.String(), func(b *testing.B) {
			if s != core.Uncached {
				if _, _, err := mgr.Execute(q, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := mgr.Execute(q, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7JoinPruningTraced is the observability overhead guard: the
// same profit query as BenchmarkFig7JoinPruning, once through the untraced
// Execute path (metrics counters only — the production hot path) and once
// through ExplainAnalyze with full span recording. Comparing the two
// sub-benchmarks bounds the cost of tracing; the untraced path's allocation
// behavior is asserted separately in internal/obs (testing.AllocsPerRun on
// the counter hot path).
func BenchmarkFig7JoinPruningTraced(b *testing.B) {
	_, mgr, q := joinScenario.get(b)
	if _, _, err := mgr.Execute(q, core.CachedFullPruning); err != nil {
		b.Fatal(err)
	}
	b.Run("tracing-disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := mgr.Execute(q, core.CachedFullPruning); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tracing-enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := mgr.ExplainAnalyze(q, core.CachedFullPruning); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig8GrowingDelta measures the same query while the benchmark
// itself keeps inserting — each iteration interleaves one business-object
// insert with one cached query, so the delta grows as in Fig. 8.
func BenchmarkFig8GrowingDelta(b *testing.B) {
	cfg := workload.DefaultERPConfig()
	cfg.Headers = 10000
	erp, err := workload.BuildERP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mgr := core.NewManager(erp.DB, erp.Reg, core.Config{})
	q := erp.ProfitQuery(cfg.BaseYear+cfg.Years-1, cfg.Languages[0])
	if _, _, err := mgr.Execute(q, core.CachedFullPruning); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := erp.InsertBusinessObject(cfg.ItemsPerHeader); err != nil {
			b.Fatal(err)
		}
		if _, _, err := mgr.Execute(q, core.CachedFullPruning); err != nil {
			b.Fatal(err)
		}
	}
}

// chScenario lazily builds the CH-benCHmark database for Fig. 9.
type chScenario struct {
	once sync.Once
	ch   *workload.CH
	mgr  *core.Manager
	err  error
}

var fig9Scenario chScenario

func (s *chScenario) get(b *testing.B) (*workload.CH, *core.Manager) {
	b.Helper()
	s.once.Do(func() {
		cfg := workload.DefaultCHConfig()
		s.ch, s.err = workload.BuildCH(cfg)
		if s.err != nil {
			return
		}
		s.mgr = core.NewManager(s.ch.DB, s.ch.Reg, core.Config{})
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.ch, s.mgr
}

// BenchmarkFig9CHBench measures the four CH-benCHmark queries per strategy.
func BenchmarkFig9CHBench(b *testing.B) {
	ch, mgr := fig9Scenario.get(b)
	for _, name := range []string{"Q3", "Q5", "Q9", "Q10"} {
		q := ch.Queries()[name]
		for _, s := range core.Strategies() {
			b.Run(name+"/"+s.String(), func(b *testing.B) {
				if s != core.Uncached {
					if _, _, err := mgr.Execute(q, s); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := mgr.Execute(q, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10PredicatePushdown measures the unprunable
// Header_delta x Item_main subjoin with and without the MD-derived
// tid-range filters.
func BenchmarkFig10PredicatePushdown(b *testing.B) {
	cfg := workload.DefaultERPConfig()
	cfg.Headers = 10000
	erp, err := workload.BuildERP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The Fig. 5 overlap: headers in delta, their items merged to main.
	if err := erp.InsertBusinessObjects(200); err != nil {
		b.Fatal(err)
	}
	if err := erp.DB.MergeTablesOnline(false, workload.TItem); err != nil {
		b.Fatal(err)
	}
	ex := &query.Executor{DB: erp.DB}
	q := erp.YearRangeQuery(cfg.BaseYear, cfg.BaseYear+cfg.Years)
	combo := query.Combo{
		{Table: workload.THeader, Part: 0, Main: false},
		{Table: workload.TItem, Part: 0, Main: true},
	}
	snap := erp.DB.Txns().ReadSnapshot()
	filters, ok := erp.Reg.PushdownFilters(q, combo)
	if !ok {
		b.Fatal("no pushdown filters derived")
	}
	b.Run("regular-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := query.NewAggTable(q.Aggs)
			var st query.Stats
			if err := ex.ExecuteCombo(q, combo, snap, nil, out, &st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("predicate-pushdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := query.NewAggTable(q.Aggs)
			var st query.Stats
			if err := ex.ExecuteCombo(q, combo, snap, filters, out, &st); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig11HotCold measures the two-table aggregate per strategy over
// the unpartitioned and the hot/cold-partitioned layout.
func BenchmarkFig11HotCold(b *testing.B) {
	for _, layout := range []struct {
		name      string
		coldShare float64
	}{
		{"unpartitioned", 0},
		{"hot-cold", 0.75},
	} {
		cfg := workload.DefaultERPConfig()
		cfg.Headers = 10000
		cfg.ColdShare = layout.coldShare
		erp, err := workload.BuildERP(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := erp.InsertBusinessObjects(200); err != nil {
			b.Fatal(err)
		}
		mgr := core.NewManager(erp.DB, erp.Reg, core.Config{})
		q := erp.YearRangeQuery(cfg.BaseYear+cfg.Years-1, cfg.BaseYear+cfg.Years)
		for _, s := range []core.Strategy{core.Uncached, core.CachedNoPruning, core.CachedFullPruning} {
			b.Run(layout.name+"/"+s.String(), func(b *testing.B) {
				if s != core.Uncached {
					if _, _, err := mgr.Execute(q, s); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := mgr.Execute(q, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMergeInterference quantifies how much an online delta merge
// perturbs concurrent cached query latency. Three phases sample per-query
// p99: truly idle; against a control goroutine burning the same CPU bursts
// a merge build costs (but taking no locks); and against a background loop
// of real online merges on the same cadence. The primary metric, p99-ratio,
// divides the merge phase by the control phase: with matched CPU pressure
// it isolates the blocking the merge machinery itself adds, which the
// online design bounds at the O(delta2 + invLog) swap critical section.
// (On single-core machines the control baseline matters: ANY background
// CPU burst inflates reader tail latency by the scheduler quantum, merge
// or not; the idle p99 is reported for reference.)
func BenchmarkMergeInterference(b *testing.B) {
	cfg := workload.DefaultERPConfig()
	cfg.Headers = 2000
	erp, err := workload.BuildERP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := erp.InsertBusinessObjects(200); err != nil {
		b.Fatal(err)
	}
	mgr := core.NewManager(erp.DB, erp.Reg, core.Config{})
	q := erp.ProfitQuery(cfg.BaseYear+cfg.Years-1, cfg.Languages[0])
	if _, _, err := mgr.Execute(q, core.CachedFullPruning); err != nil {
		b.Fatal(err)
	}

	sample := func(n int) []time.Duration {
		lat := make([]time.Duration, n)
		for i := range lat {
			start := time.Now()
			if _, _, err := mgr.Execute(q, core.CachedFullPruning); err != nil {
				b.Fatal(err)
			}
			lat[i] = time.Since(start)
		}
		return lat
	}
	p99 := func(lat []time.Duration) time.Duration {
		sorted := append([]time.Duration(nil), lat...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[len(sorted)*99/100]
	}
	oneMerge := func() (time.Duration, error) {
		erp.DB.Lock()
		err := erp.InsertBusinessObject(cfg.ItemsPerHeader)
		erp.DB.Unlock()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		err = erp.DB.MergeTablesOnline(false, workload.THeader, workload.TItem)
		return time.Since(start), err
	}

	// Calibrate the control load: one full online merge's wall clock. The
	// loop cadence leaves two bursts of quiet per burst of merge so the
	// sampled tail reflects collisions, not a saturated merge pipeline.
	burst, err := oneMerge()
	if err != nil {
		b.Fatal(err)
	}
	gap := 2 * burst
	if gap < 5*time.Millisecond {
		gap = 5 * time.Millisecond
	}

	n := b.N
	if n < 2000 {
		n = 2000
	}
	b.ResetTimer()
	idle := sample(n)

	// Control phase: same CPU and allocation bursts on the same cadence,
	// no locks taken. The allocations matter: a merge build's garbage
	// triggers GC assists that tax every goroutine, and that pressure must
	// appear in the baseline for the ratio to isolate lock blocking.
	stopCtl := make(chan struct{})
	doneCtl := make(chan struct{})
	go func() {
		defer close(doneCtl)
		var hold [][]byte
		for {
			select {
			case <-stopCtl:
				return
			default:
			}
			hold = hold[:0]
			for spin := time.Now(); time.Since(spin) < burst; {
				hold = append(hold, make([]byte, 1<<14))
				if len(hold) > 256 {
					hold = hold[:0]
				}
			}
			time.Sleep(gap)
		}
	}()
	ctl := sample(n)
	close(stopCtl)
	<-doneCtl

	// Merge phase: real online merges at the same cadence.
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := oneMerge(); err != nil {
				done <- err
				return
			}
			time.Sleep(gap)
		}
	}()
	during := sample(n)
	close(stop)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()

	p99Idle, p99Ctl, p99During := p99(idle), p99(ctl), p99(during)
	b.ReportMetric(float64(p99Idle.Nanoseconds())/1e3, "p99-idle-us")
	b.ReportMetric(float64(p99Ctl.Nanoseconds())/1e3, "p99-ctl-us")
	b.ReportMetric(float64(p99During.Nanoseconds())/1e3, "p99-merge-us")
	b.ReportMetric(float64(p99During)/float64(p99Ctl), "p99-ratio")
}
