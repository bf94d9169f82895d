package bench

import (
	"fmt"
	"sort"

	"aggcache/internal/core"
	"aggcache/internal/workload"
)

func fig9Quick() workload.CHConfig {
	cfg := workload.DefaultCHConfig()
	cfg.Orders = 2000
	cfg.Customers = 600
	cfg.Items = 300
	cfg.Suppliers = 50
	return cfg
}

func fig9Full() workload.CHConfig {
	cfg := workload.DefaultCHConfig()
	cfg.Orders = 50000
	cfg.Customers = 15000
	cfg.Items = 5000
	cfg.Warehouses = 4
	cfg.Suppliers = 500
	return cfg
}

// RunFig9 measures the CH-benCHmark queries Q3, Q5, Q9, and Q10 under the
// four join execution strategies, with 5% of the transactional rows in the
// delta stores (paper Fig. 9, scale factor reduced ~100x).
func RunFig9(quick bool) (*Result, error) {
	cfg := fig9Full()
	if quick {
		cfg = fig9Quick()
	}
	ch, err := workload.BuildCH(cfg)
	if err != nil {
		return nil, err
	}
	mgr := core.NewManager(ch.DB, ch.Reg, core.Config{Workers: Workers})

	res := &Result{
		ID:     "fig9",
		Title:  "CH-benCHmark queries by strategy (x = TPC-H query number)",
		XLabel: "query",
		YLabel: "query ms",
	}
	series := make([]Series, len(core.Strategies()))
	for i, s := range core.Strategies() {
		series[i].Label = s.String()
	}
	names := make([]string, 0, 4)
	for name := range ch.Queries() {
		names = append(names, name)
	}
	sort.Strings(names) // Q10, Q3, Q5, Q9 — x carries the numeric id

	reps := 3
	if quick {
		reps = 2
	}
	var notes []string
	for _, name := range names {
		q := ch.Queries()[name]
		var x float64
		fmt.Sscanf(name, "Q%f", &x)
		var uncachedMS, fullMS float64
		for si, s := range core.Strategies() {
			if s != core.Uncached {
				if _, _, err := mgr.Execute(q, s); err != nil {
					return nil, err
				}
			}
			var info core.ExecInfo
			ms, err := minOf(reps, func() error {
				var err error
				_, info, err = mgr.Execute(q, s)
				return err
			})
			if err != nil {
				return nil, err
			}
			series[si].Points = append(series[si].Points, Point{X: x, Y: ms})
			switch s {
			case core.Uncached:
				uncachedMS = ms
			case core.CachedFullPruning:
				fullMS = ms
				notes = append(notes, fmt.Sprintf(
					"%s (%d tables): full pruning %.1fx vs uncached; %d/%d subjoins executed",
					name, len(q.Tables), uncachedMS/ms, info.Stats.Executed, info.Stats.Subjoins))
			}
		}
		_ = fullMS
	}
	res.Series = series
	res.Notes = append(notes,
		"paper: for joins of >3 tables the cache without pruning is only marginally better than uncached; full pruning gains up to an order of magnitude")
	return res, nil
}
