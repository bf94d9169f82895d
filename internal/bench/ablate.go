package bench

import (
	"fmt"

	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/workload"
)

// RunAblateMergeSync is the Sec. 5.2 ablation: the paper argues that
// synchronizing the delta merges of related transactional tables maximizes
// join-pruning success, because matching tuples then sit either all in main
// or all in delta. The experiment replays rounds of business-object inserts
// followed by either synchronized merges (Header and Item together) or
// independent merges (Item every round, Header every other round), and
// measures the full-pruning profit query plus the pruning/pushdown counters
// after each round.
func RunAblateMergeSync(quick bool) (*Result, error) {
	headers, batch, rounds := 30000, 2000, 8
	if quick {
		headers, batch, rounds = 3000, 200, 4
	}
	res := &Result{
		ID:     "ablate-sync",
		Title:  "Merge synchronization ablation: pruning success under merge policies",
		XLabel: "round",
		YLabel: "query ms",
	}
	type tally struct {
		pruned, pushdowns, executed int
	}
	tallies := map[string]*tally{}
	for _, policy := range []string{"synchronized-merges", "independent-merges"} {
		cfg := workload.DefaultERPConfig()
		cfg.Headers = headers
		erp, err := workload.BuildERP(cfg)
		if err != nil {
			return nil, err
		}
		mgr := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: Workers})
		q := erp.ProfitQuery(cfg.BaseYear+cfg.Years-1, cfg.Languages[0])
		if _, _, err := mgr.Execute(q, core.CachedFullPruning); err != nil {
			return nil, err
		}
		s := Series{Label: policy}
		tl := &tally{}
		tallies[policy] = tl
		for round := 1; round <= rounds; round++ {
			if err := erp.InsertBusinessObjects(batch); err != nil {
				return nil, err
			}
			if policy == "synchronized-merges" {
				if err := erp.DB.MergeTablesOnline(false, workload.THeader, workload.TItem); err != nil {
					return nil, err
				}
			} else {
				// Item merges every round; Header lags one round behind, so
				// matching tuples regularly straddle Header_delta x Item_main.
				if err := erp.DB.MergeTablesOnline(false, workload.TItem); err != nil {
					return nil, err
				}
				if round%2 == 0 {
					if err := erp.DB.MergeTablesOnline(false, workload.THeader); err != nil {
						return nil, err
					}
				}
			}
			// Fresh activity after the merge keeps the deltas non-trivial.
			if err := erp.InsertBusinessObjects(batch / 4); err != nil {
				return nil, err
			}
			var info core.ExecInfo
			ms, err := minOf(2, func() error {
				var err error
				_, info, err = mgr.Execute(q, core.CachedFullPruning)
				return err
			})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: float64(round), Y: ms})
			tl.pruned += info.Stats.PrunedMD
			tl.pushdowns += info.Stats.Pushdowns
			tl.executed += info.Stats.Executed
		}
		res.Series = append(res.Series, s)
	}
	for _, policy := range []string{"synchronized-merges", "independent-merges"} {
		tl := tallies[policy]
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: %d subjoins MD-pruned, %d executed, %d pushdown compensations across %d rounds",
			policy, tl.pruned, tl.executed, tl.pushdowns, rounds))
	}
	res.Notes = append(res.Notes,
		"paper Sec. 5.2: pruning is more likely to succeed when related tables merge together; pushdown covers the unprunable overlap")
	return res, nil
}

// RunAblateNegDelta measures the paper's Sec. 8 extension: when rows are
// updated in the main stores, a join entry can either be rebuilt from
// scratch on next access (the paper's baseline behaviour) or compensated
// with negative-delta subjoins over the invalidated rows (implemented
// here). The experiment updates batches of main-resident items and times
// the next cached query under both policies.
func RunAblateNegDelta(quick bool) (*Result, error) {
	headers := 50000
	batches := []int{1, 10, 100, 1000}
	if quick {
		headers = 5000
		batches = []int{1, 10, 100}
	}
	res := &Result{
		ID:     "ablate-negdelta",
		Title:  "Updates in main: negative-delta compensation vs entry rebuild",
		XLabel: "updated rows per batch",
		YLabel: "next query ms",
	}
	for _, policy := range []struct {
		label   string
		disable bool
	}{
		{"negative-delta compensation", false},
		{"rebuild on invalidation", true},
	} {
		cfg := workload.DefaultERPConfig()
		cfg.Headers = headers
		erp, err := workload.BuildERP(cfg)
		if err != nil {
			return nil, err
		}
		mgr := core.NewManager(erp.DB, erp.Reg, core.Config{DisableJoinCompensation: policy.disable, Workers: Workers})
		q := erp.ProfitQuery(cfg.BaseYear+cfg.Years-1, cfg.Languages[0])
		if _, _, err := mgr.Execute(q, core.CachedFullPruning); err != nil {
			return nil, err
		}
		s := Series{Label: policy.label}
		item := erp.DB.MustTable(workload.TItem)
		nextID := int64(1)
		for _, batch := range batches {
			for k := 0; k < batch; k++ {
				tx := erp.DB.Txns().Begin()
				if err := item.Update(tx, nextID, map[string]column.Value{
					"Price": column.FloatV(float64(100 + k)),
				}); err != nil {
					tx.Abort()
					return nil, err
				}
				tx.Commit()
				nextID++
			}
			ms, err := timeIt(func() error {
				_, _, err := mgr.Execute(q, core.CachedFullPruning)
				return err
			})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: float64(batch), Y: ms})
		}
		res.Series = append(res.Series, s)
	}
	comp, reb := res.Series[0].Points[0].Y, res.Series[1].Points[0].Y
	res.Notes = append(res.Notes, fmt.Sprintf(
		"single-row update: compensation %.2fms vs rebuild %.2fms (%.0fx)", comp, reb, reb/comp))
	res.Notes = append(res.Notes,
		"paper Sec. 8 lists improving update handling as future work; negative-delta compensation is this repository's implementation of it")
	return res, nil
}
