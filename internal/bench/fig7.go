package bench

import (
	"fmt"

	"aggcache/internal/core"
	"aggcache/internal/workload"
)

// fig7Config sizes the join-pruning sweep: the three-table profit query
// (Listing 1) measured at fixed delta sizes with all four execution
// strategies.
type fig7Config struct {
	erp workload.ERPConfig
	// deltaItems are the Item-delta row targets; the header delta holds
	// one tenth (paper Sec. 6.4).
	deltaItems []int
	reps       int
}

func fig7Quick() fig7Config {
	cfg := workload.DefaultERPConfig()
	cfg.Headers = 3000
	return fig7Config{erp: cfg, deltaItems: []int{300, 3000, 15000}, reps: 2}
}

func fig7Full() fig7Config {
	cfg := workload.DefaultERPConfig()
	cfg.Headers = 100000
	return fig7Config{erp: cfg, deltaItems: []int{1000, 10000, 100000, 500000}, reps: 3}
}

// RunFig7 measures the profit query under the four join execution
// strategies at increasing delta sizes (paper Fig. 7). The paper's absolute
// sizes (330 M main, 3 k - 3 M delta) are scaled down ~100x with the
// delta:main ratios spanning the same decades.
func RunFig7(quick bool) (*Result, error) {
	cfg := fig7Full()
	if quick {
		cfg = fig7Quick()
	}
	erp, err := workload.BuildERP(cfg.erp)
	if err != nil {
		return nil, err
	}
	mgr := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: Workers})
	q := erp.ProfitQuery(cfg.erp.BaseYear+cfg.erp.Years-1, cfg.erp.Languages[0])

	res := &Result{
		ID:     "fig7",
		Title:  "Profit query (3-table join) by strategy and Item-delta size",
		XLabel: "Item delta rows",
		YLabel: "query ms",
	}
	series := make([]Series, len(core.Strategies()))
	for i, s := range core.Strategies() {
		series[i].Label = s.String()
	}

	var lastStats string
	for _, target := range cfg.deltaItems {
		item := erp.DB.MustTable(workload.TItem)
		for item.DeltaRows() < target {
			if err := erp.InsertBusinessObject(cfg.erp.ItemsPerHeader); err != nil {
				return nil, err
			}
		}
		for si, s := range core.Strategies() {
			// Warm the cache entry so hits are measured, as in the paper.
			if s != core.Uncached {
				if _, _, err := mgr.Execute(q, s); err != nil {
					return nil, err
				}
			}
			var info core.ExecInfo
			ms, err := minOf(cfg.reps, func() error {
				var err error
				_, info, err = mgr.Execute(q, s)
				return err
			})
			if err != nil {
				return nil, err
			}
			series[si].Points = append(series[si].Points, Point{X: float64(target), Y: ms})
			if s == core.CachedFullPruning {
				lastStats = fmt.Sprintf("full pruning at %d delta rows: %d/%d subjoins executed (%d MD-pruned, %d empty-pruned, %d pushdowns)",
					target, info.Stats.Executed, info.Stats.Subjoins,
					info.Stats.PrunedMD, info.Stats.PrunedEmpty, info.Stats.Pushdowns)
			}
		}
	}
	res.Series = series
	res.Notes = append(res.Notes, lastStats, speedupNote(series))
	return res, nil
}

// speedupNote summarizes the cached-vs-uncached and pruning-vs-no-pruning
// factors the paper reports alongside Fig. 7.
func speedupNote(series []Series) string {
	first, last := 0, len(series[0].Points)-1
	smallGain := series[0].Points[first].Y / series[3].Points[first].Y
	avgNoPrune, avgFull := 0.0, 0.0
	for i := range series[1].Points {
		avgNoPrune += series[1].Points[i].Y
		avgFull += series[3].Points[i].Y
	}
	factor := avgNoPrune / avgFull
	_ = last
	return fmt.Sprintf("cache+full pruning vs uncached at smallest delta: %.1fx (paper: ~10x); full pruning vs no pruning on average: %.1fx (paper: ~4x)",
		smallGain, factor)
}
