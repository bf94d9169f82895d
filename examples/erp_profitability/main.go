// ERP profitability: the paper's motivating scenario (Listing 1).
//
// A financial-accounting dataset — header and item tables persisted as
// business objects plus a product-category dimension — answers a profit and
// loss statement query ("profit per product category, fiscal year 2014, in
// English") under all four execution strategies, before and after new
// bookings arrive in the delta stores. The output shows the subjoin
// accounting behind the speedups of paper Fig. 7.
//
// Run with: go run ./examples/erp_profitability
package main

import (
	"fmt"
	"log"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/workload"
)

func main() {
	cfg := workload.ERPConfig{
		Headers:        20000,
		ItemsPerHeader: 10,
		Categories:     100,
		Languages:      []string{"ENG", "GER", "FRA"},
		Years:          5,
		BaseYear:       2010,
		Seed:           1,
	}
	fmt.Printf("loading ERP dataset: %d headers, %d items, %d categories x %d languages...\n",
		cfg.Headers, cfg.Headers*cfg.ItemsPerHeader, cfg.Categories, len(cfg.Languages))
	erp, err := workload.BuildERP(cfg)
	if err != nil {
		log.Fatal(err)
	}
	mgr := core.NewManager(erp.DB, erp.Reg, core.Config{})
	q := erp.ProfitQuery(2014, "ENG")

	run := func(label string) {
		fmt.Printf("\n-- %s --\n", label)
		fmt.Printf("%-28s %10s %10s %22s\n", "strategy", "time", "groups", "subjoins (exec/total)")
		for _, s := range core.Strategies() {
			// Warm the entry so cached strategies measure usage, then time
			// one execution.
			if s != core.Uncached {
				if _, _, err := mgr.Execute(q, s); err != nil {
					log.Fatal(err)
				}
			}
			start := time.Now()
			res, info, err := mgr.Execute(q, s)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-28s %10s %10d %13d/%d (md-pruned %d)\n",
				s, time.Since(start).Round(10*time.Microsecond),
				res.Groups(), info.Stats.Executed, info.Stats.Subjoins, info.Stats.PrunedMD)
		}
	}

	run("all history merged into main (empty deltas)")

	fmt.Println("\nposting 2000 new business objects (20000 items) into the deltas...")
	if err := erp.InsertBusinessObjects(2000); err != nil {
		log.Fatal(err)
	}
	run("20000 item rows pending in the delta stores")

	// Show the top of the actual report once.
	res, _, err := mgr.Execute(q, core.CachedFullPruning)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprofit by category (top 5):")
	rows := res.Rows()
	for i, r := range rows {
		if i == 5 {
			break
		}
		fmt.Printf("  %-22s %12.2f\n", r.Keys[0].S, r.Aggs[0].F)
	}

	fmt.Println("\nsynchronized delta merge of Header and Item (Sec. 5.2)...")
	if err := erp.DB.MergeTablesOnline(false, workload.THeader, workload.TItem); err != nil {
		log.Fatal(err)
	}
	if em, ok := mgr.EntryMetrics(q); ok {
		fmt.Printf("cache entry maintained incrementally: maintenances=%d rebuilds=%d\n",
			em.Maintenances, em.Rebuilds)
	}
	run("after the merge")
}
