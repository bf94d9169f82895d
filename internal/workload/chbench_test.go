package workload

import (
	"reflect"
	"testing"

	"aggcache/internal/core"
	"aggcache/internal/query"
)

func smallCH(t testing.TB) *CH {
	t.Helper()
	cfg := CHConfig{
		Orders:        200,
		LinesPerOrder: 3,
		Customers:     50,
		Items:         40,
		Warehouses:    2,
		Suppliers:     10,
		DeltaShare:    0.05,
		Seed:          3,
	}
	c, err := BuildCH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildCHCounts(t *testing.T) {
	c := smallCH(t)
	orders := c.DB.MustTable(TOrders)
	lines := c.DB.MustTable(TOrderline)
	stock := c.DB.MustTable(TStock)

	mainOrders := orders.Partition(0).Main.Rows()
	deltaOrders := orders.DeltaRows()
	if mainOrders+deltaOrders != 200 {
		t.Fatalf("orders = %d+%d, want 200 total", mainOrders, deltaOrders)
	}
	if deltaOrders != 10 { // 5% of 200
		t.Fatalf("delta orders = %d, want 10", deltaOrders)
	}
	if got := lines.Partition(0).Main.Rows() + lines.DeltaRows(); got != 600 {
		t.Fatalf("orderlines = %d, want 600", got)
	}
	// Stock updates: 5% of 80 rows = 4 new versions in delta, 4
	// invalidations in main (random keys may collide; allow fewer).
	if stock.DeltaRows() == 0 {
		t.Fatal("stock delta empty; updates missing")
	}
	// Dimensions are merged and quiet.
	for _, name := range []string{TRegion, TNation, TSupplier, TItemCH, TCustomer} {
		if c.DB.MustTable(name).DeltaRows() != 0 {
			t.Fatalf("%s delta not empty", name)
		}
	}
}

func TestBuildCHValidatesConfig(t *testing.T) {
	if _, err := BuildCH(CHConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestCHQueriesValidate(t *testing.T) {
	c := smallCH(t)
	for name, q := range c.Queries() {
		if err := q.Validate(c.DB); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestCHOrderlineMDEnforced(t *testing.T) {
	c := smallCH(t)
	lines := c.DB.MustTable(TOrderline)
	orders := c.DB.MustTable(TOrders)
	ds := lines.Partition(0).Delta
	okIdx := lines.Schema().MustColIndex("ol_o_key")
	tidIdx := lines.Schema().MustColIndex("tid_order")
	for r := 0; r < ds.Rows(); r++ {
		oid := ds.Col(okIdx).Int64(r)
		ref, ok := orders.LookupPK(oid)
		if !ok {
			t.Fatalf("orderline row %d references missing order %d", r, oid)
		}
		otid := orders.Get(ref, orders.Schema().MustColIndex("tid_order")).I
		if ds.Col(tidIdx).Int64(r) != otid {
			t.Fatalf("orderline tid %d != order tid %d", ds.Col(tidIdx).Int64(r), otid)
		}
	}
}

func TestCHStrategiesAgree(t *testing.T) {
	c := smallCH(t)
	mgr := core.NewManager(c.DB, c.Reg, core.Config{})
	for name, q := range c.Queries() {
		want, _, err := mgr.Execute(q, core.Uncached)
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		for _, s := range core.Strategies()[1:] {
			got, _, err := mgr.Execute(q, s)
			if err != nil {
				t.Fatalf("%s %v: %v", name, s, err)
			}
			if !want.Equal(got) {
				t.Fatalf("%s: strategy %v diverges from uncached", name, s)
			}
		}
	}
}

func TestCHSubjoinCounts(t *testing.T) {
	c := smallCH(t)
	mgr := core.NewManager(c.DB, c.Reg, core.Config{})
	// Q5 joins 7 tables: 127 subjoins uncached, 126 for delta
	// compensation (the all-main one is cached).
	_, info, err := mgr.Execute(c.Q5(), core.Uncached)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Subjoins != 128 {
		t.Fatalf("Q5 uncached subjoins = %d, want 128", info.Stats.Subjoins)
	}
	_, info, err = mgr.Execute(c.Q5(), core.CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	// Entry creation runs the 1 all-main combo; delta compensation
	// considers the remaining 127.
	if info.Stats.Subjoins != 128 {
		t.Fatalf("Q5 cached subjoins considered = %d, want 128", info.Stats.Subjoins)
	}
	if info.Stats.PrunedEmpty == 0 {
		t.Fatal("no empty-store pruning despite quiet dimensions")
	}
	if info.Stats.Executed >= 64 {
		t.Fatalf("full pruning executed %d of 127 compensation subjoins", info.Stats.Executed)
	}
}

// rerooted rewrites q's join tree breadth-first from the table at position
// root: another valid spelling of the same query, with Tables in a new
// order and edges flipped wherever the walk crosses them child-to-parent.
func rerooted(q *query.Query, root int) *query.Query {
	out := &query.Query{Tables: []string{q.Tables[root]}, Filters: q.Filters, GroupBy: q.GroupBy, Aggs: q.Aggs}
	seen := map[string]bool{q.Tables[root]: true}
	for i := 0; i < len(out.Tables); i++ {
		for _, e := range q.Joins {
			switch {
			case e.Left.Table == out.Tables[i] && !seen[e.Right.Table]:
				out.Joins = append(out.Joins, e)
			case e.Right.Table == out.Tables[i] && !seen[e.Left.Table]:
				out.Joins = append(out.Joins, query.JoinEdge{Left: e.Right, Right: e.Left})
			default:
				continue
			}
			added := out.Joins[len(out.Joins)-1].Right.Table
			seen[added] = true
			out.Tables = append(out.Tables, added)
		}
	}
	return out
}

// The join order inside a subjoin comes from the candidate counts, not from
// how the query was written: every rerooted spelling of Q3/Q5/Q9/Q10 yields
// byte-identical rows and the same TuplesJoined over all subjoins.
func TestCHJoinOrderIgnoresQuerySpelling(t *testing.T) {
	c := smallCH(t)
	ex := &query.Executor{DB: c.DB}
	snap := c.DB.Txns().ReadSnapshot()
	for name, q := range c.Queries() {
		want, wst, err := ex.ExecuteAll(q, snap, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wst.TuplesJoined == 0 {
			t.Fatalf("%s: joins nothing at this scale", name)
		}
		for root := 1; root < len(q.Tables); root++ {
			rq := rerooted(q, root)
			if err := rq.Validate(c.DB); err != nil {
				t.Fatalf("%s rooted at %s: %v", name, q.Tables[root], err)
			}
			got, gst, err := ex.ExecuteAll(rq, snap, nil)
			if err != nil {
				t.Fatalf("%s rooted at %s: %v", name, q.Tables[root], err)
			}
			if !reflect.DeepEqual(want.Rows(), got.Rows()) {
				t.Fatalf("%s rooted at %s: rows differ\n got %+v\nwant %+v", name, q.Tables[root], got.Rows(), want.Rows())
			}
			if gst.TuplesJoined != wst.TuplesJoined {
				t.Fatalf("%s rooted at %s: TuplesJoined %d, want %d", name, q.Tables[root], gst.TuplesJoined, wst.TuplesJoined)
			}
		}
	}
}

func TestCHInsertOrderGrowsDeltas(t *testing.T) {
	c := smallCH(t)
	before := c.DB.MustTable(TOrderline).DeltaRows()
	if err := c.InsertOrder(); err != nil {
		t.Fatal(err)
	}
	after := c.DB.MustTable(TOrderline).DeltaRows()
	if after != before+c.Cfg.LinesPerOrder {
		t.Fatalf("orderline delta %d -> %d, want +%d", before, after, c.Cfg.LinesPerOrder)
	}
}
