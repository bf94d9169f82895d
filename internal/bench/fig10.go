package bench

import (
	"fmt"

	"aggcache/internal/query"
	"aggcache/internal/workload"
)

// fig10Config sizes the predicate-pushdown experiment: the unprunable
// subjoin Header_delta x Item_main is measured with and without the
// MD-derived tid-range filters, for several Item_main sizes and varying
// numbers of matching records (paper Fig. 10).
type fig10Config struct {
	mainItems  []int
	matchSteps []float64 // matching records as a share of the main size
	reps       int
}

func fig10Quick() fig10Config {
	return fig10Config{mainItems: []int{20000}, matchSteps: []float64{0.01, 0.05, 0.10}, reps: 2}
}

func fig10Full() fig10Config {
	return fig10Config{
		mainItems:  []int{100000, 500000, 1000000},
		matchSteps: []float64{0.002, 0.01, 0.02, 0.05},
		reps:       3,
	}
}

// RunFig10 reproduces the pushdown benefit: when the Fig. 5 overlap
// prevents pruning (headers in delta, their items already merged to main),
// the derived local predicate restricts the Item_main scan to the tid
// window of Header_delta.
func RunFig10(quick bool) (*Result, error) {
	cfg := fig10Full()
	if quick {
		cfg = fig10Quick()
	}
	res := &Result{
		ID:     "fig10",
		Title:  "Header_delta x Item_main subjoin with and without predicate pushdown",
		XLabel: "matching records",
		YLabel: "subjoin ms",
	}
	for _, mainSize := range cfg.mainItems {
		erpCfg := workload.DefaultERPConfig()
		erpCfg.Headers = mainSize / erpCfg.ItemsPerHeader
		erp, err := workload.BuildERP(erpCfg)
		if err != nil {
			return nil, err
		}
		ex := &query.Executor{DB: erp.DB, Workers: Workers}
		q := erp.YearRangeQuery(erpCfg.BaseYear, erpCfg.BaseYear+erpCfg.Years)
		combo := query.Combo{
			{Table: workload.THeader, Part: 0, Main: false},
			{Table: workload.TItem, Part: 0, Main: true},
		}
		regular := Series{Label: fmt.Sprintf("regular join (%dk main)", mainSize/1000)}
		pushdown := Series{Label: fmt.Sprintf("pushdown (%dk main)", mainSize/1000)}

		matched := 0
		for _, share := range cfg.matchSteps {
			target := int(float64(mainSize) * share)
			// Create the overlap: insert business objects, then merge only
			// the Item table. The headers stay in the delta while their
			// items move to main — the unprunable Fig. 5 state.
			for matched < target {
				if err := erp.InsertBusinessObject(erpCfg.ItemsPerHeader); err != nil {
					return nil, err
				}
				matched += erpCfg.ItemsPerHeader
			}
			if err := erp.DB.MergeTablesOnline(false, workload.TItem); err != nil {
				return nil, err
			}
			snap := erp.DB.Txns().ReadSnapshot()
			msReg, err := minOf(cfg.reps, func() error {
				out := query.NewAggTable(q.Aggs)
				var st query.Stats
				return ex.ExecuteCombo(q, combo, snap, nil, out, &st)
			})
			if err != nil {
				return nil, err
			}
			filters, ok := erp.Reg.PushdownFilters(q, combo)
			if !ok {
				return nil, fmt.Errorf("fig10: no pushdown filters derived")
			}
			msPush, err := minOf(cfg.reps, func() error {
				out := query.NewAggTable(q.Aggs)
				var st query.Stats
				return ex.ExecuteCombo(q, combo, snap, filters, out, &st)
			})
			if err != nil {
				return nil, err
			}
			regular.Points = append(regular.Points, Point{X: float64(matched), Y: msReg})
			pushdown.Points = append(pushdown.Points, Point{X: float64(matched), Y: msPush})
		}
		res.Series = append(res.Series, regular, pushdown)
	}
	// Factor note from the largest main size's smallest match count.
	r := res.Series[len(res.Series)-2].Points[0]
	p := res.Series[len(res.Series)-1].Points[0]
	res.Notes = append(res.Notes, fmt.Sprintf(
		"pushdown speedup at fewest matching records: %.1fx (paper: up to 4x, largest when few records match)", r.Y/p.Y))
	return res, nil
}
