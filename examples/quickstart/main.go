// Quickstart: the smallest end-to-end use of the aggregate cache.
//
// It creates a two-table schema (orders with their lines), declares the
// object-aware matching dependency, loads a little data, and shows how a
// cached join aggregate stays consistent through inserts (delta
// compensation), deletes (main compensation), and a delta merge
// (incremental maintenance) — without ever being recomputed from scratch.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/md"
	"aggcache/internal/query"
	"aggcache/internal/table"
)

func main() {
	db := table.Open()

	// 1. Schema: a header table and an item table, each with the tid
	// column the matching dependency is built on.
	orders, err := db.Create(table.Schema{
		Name: "orders",
		Cols: []table.ColumnDef{
			{Name: "id", Kind: column.Int64},
			{Name: "customer", Kind: column.String},
			{Name: "tid", Kind: column.Int64},
		},
		PK: "id",
	})
	if err != nil {
		log.Fatal(err)
	}
	lines, err := db.Create(table.Schema{
		Name: "lines",
		Cols: []table.ColumnDef{
			{Name: "id", Kind: column.Int64},
			{Name: "order_id", Kind: column.Int64},
			{Name: "amount", Kind: column.Float64},
			{Name: "tid_order", Kind: column.Int64},
		},
		PK: "id",
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Matching dependency: a line agrees with its order on the tid.
	reg := md.NewRegistry(db)
	if err := reg.Add(md.MD{
		Parent: "orders", ParentPK: "id", ParentTID: "tid",
		Child: "lines", ChildFK: "order_id", ChildTID: "tid_order",
	}); err != nil {
		log.Fatal(err)
	}

	// 3. Insert business objects: an order and its lines in one
	// transaction, with the MD enforced at insert time.
	nextLine := int64(1)
	insertOrder := func(id int64, customer string, amounts ...float64) {
		tx := db.Txns().Begin()
		if _, err := orders.Insert(tx, []column.Value{
			column.IntV(id), column.StrV(customer), column.IntV(int64(tx.ID())),
		}); err != nil {
			log.Fatal(err)
		}
		for _, a := range amounts {
			row := []column.Value{
				column.IntV(nextLine), column.IntV(id), column.FloatV(a), column.IntV(0),
			}
			nextLine++
			if err := reg.FillChildTIDs("lines", row); err != nil {
				log.Fatal(err)
			}
			if _, err := lines.Insert(tx, row); err != nil {
				log.Fatal(err)
			}
		}
		tx.Commit()
	}
	insertOrder(1, "acme", 10, 20)
	insertOrder(2, "globex", 5)

	// Merge so the history sits in the read-optimized main stores.
	if err := db.MergeTablesOnline(false, "orders", "lines"); err != nil {
		log.Fatal(err)
	}

	// 4. The aggregate query: revenue per customer across the join.
	q := &query.Query{
		Tables: []string{"orders", "lines"},
		Joins: []query.JoinEdge{{
			Left:  query.ColRef{Table: "orders", Col: "id"},
			Right: query.ColRef{Table: "lines", Col: "order_id"},
		}},
		GroupBy: []query.ColRef{{Table: "orders", Col: "customer"}},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: "lines", Col: "amount"}, As: "revenue"},
			{Func: query.Count, As: "lines"},
		},
	}

	mgr := core.NewManager(db, reg, core.Config{})
	show := func(label string) {
		res, info, err := mgr.Execute(q, core.CachedFullPruning)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (hit=%v, subjoins executed %d/%d, MD-pruned %d):\n",
			label, info.CacheHit, info.Stats.Executed, info.Stats.Subjoins, info.Stats.PrunedMD)
		for _, r := range res.Rows() {
			fmt.Printf("  %-8s revenue=%6.1f lines=%d\n", r.Keys[0].S, r.Aggs[0].F, r.Aggs[1].I)
		}
	}

	show("initial (creates the cache entry)")

	// 5. Delta compensation: new data lands in the delta stores; the
	// cached main aggregate is compensated on the fly.
	insertOrder(3, "acme", 7)
	show("after insert (delta compensation)")

	// 6. Invalidation in main: deleting a line that lives in the main
	// store is detected by the visibility bit-vector comparison and
	// compensated in place — single-table entries subtract the rows, join
	// entries apply negative-delta subjoins (the paper's Sec. 8 extension).
	// The next execution is still a cache hit; no rebuild happens.
	tx := db.Txns().Begin()
	if err := lines.Delete(tx, 2); err != nil { // the 20.0 acme line
		log.Fatal(err)
	}
	tx.Commit()
	show("after delete in main (detected via visibility vectors)")

	// 7. Incremental maintenance: the merge folds the delta into the
	// cached entry — no recomputation.
	if err := db.MergeTablesOnline(false, "orders", "lines"); err != nil {
		log.Fatal(err)
	}
	// EntryMetrics copies the metrics under the manager lock — the
	// race-safe way to introspect an entry (see the Entry doc comment).
	em, _ := mgr.EntryMetrics(q)
	fmt.Printf("after merge: entry maintained %d time(s) during merges, rebuilt %d time(s)\n",
		em.Maintenances, em.Rebuilds)
	show("after merge (served from the maintained entry)")
}
