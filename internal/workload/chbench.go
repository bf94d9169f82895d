package workload

import (
	"fmt"
	"math/rand"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/md"
	"aggcache/internal/query"
	"aggcache/internal/table"
	"aggcache/internal/txn"
)

// CHConfig sizes the scaled CH-benCHmark database. The paper uses scale
// factor 200 (60 M orderline rows); this generator preserves the table-size
// ratios at laptop scale and the 5 % delta population of Sec. 6.4.
type CHConfig struct {
	// Orders is the total order count; orderlines follow with
	// LinesPerOrder each, and a NewOrder row exists for the most recent
	// third of orders (as in TPC-C).
	Orders int
	// LinesPerOrder is the orderline fan-out (TPC-C averages 10).
	LinesPerOrder int
	// Customers, Items, Warehouses, Suppliers size the other tables;
	// stock is Warehouses x Items.
	Customers  int
	Items      int
	Warehouses int
	Suppliers  int
	// DeltaShare is the fraction of orders/neworder/orderline rows
	// inserted into the delta stores, and of stock rows updated in place
	// (paper: 5 %).
	DeltaShare float64
	// Seed drives the deterministic random generator.
	Seed int64
}

// DefaultCHConfig returns a laptop-scale configuration (~1/100 of the
// paper's scale factor, same ratios).
func DefaultCHConfig() CHConfig {
	return CHConfig{
		Orders:        20000,
		LinesPerOrder: 3,
		Customers:     6000,
		Items:         2000,
		Warehouses:    4,
		Suppliers:     200,
		DeltaShare:    0.05,
		Seed:          7,
	}
}

// CH table names.
const (
	TCustomer  = "customer"
	TOrders    = "orders"
	TNewOrder  = "neworder"
	TOrderline = "orderline"
	TStock     = "stock"
	TItemCH    = "item"
	TSupplier  = "supplier"
	TNation    = "nation"
	TRegion    = "region"
)

// CH is a generated CH-benCHmark database.
type CH struct {
	DB  *table.DB
	Reg *md.Registry
	Cfg CHConfig

	rng       *rand.Rand
	nextOrder int64
	nextLine  int64
	nextNO    int64
}

// nations and regions follow TPC-H's fixed dimension data, trimmed.
var chRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
var chNations = []struct {
	name   string
	region int64
}{
	{"GERMANY", 3}, {"FRANCE", 3}, {"UK", 3}, {"ITALY", 3}, {"SPAIN", 3},
	{"USA", 1}, {"CANADA", 1}, {"BRAZIL", 1},
	{"CHINA", 2}, {"JAPAN", 2}, {"INDIA", 2},
	{"EGYPT", 4}, {"IRAN", 4},
	{"KENYA", 0}, {"MOROCCO", 0},
}

// BuildCH creates the schema, registers the object-semantics matching
// dependencies (orders-orderline and orders-neworder: an order and its
// lines are persisted in one transaction), bulk-loads 1-DeltaShare of the
// transactional rows into main, and plays the remaining share through the
// regular insert path so it sits in the delta stores. Stock receives
// DeltaShare in-place updates, which land in its delta as new versions.
func BuildCH(cfg CHConfig) (*CH, error) {
	if cfg.Orders <= 0 || cfg.LinesPerOrder <= 0 || cfg.Customers <= 0 ||
		cfg.Items <= 0 || cfg.Warehouses <= 0 || cfg.Suppliers <= 0 {
		return nil, fmt.Errorf("workload: invalid CH config %+v", cfg)
	}
	db := table.Open()
	c := &CH{
		DB:  db,
		Reg: md.NewRegistry(db),
		Cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	if err := c.createSchema(); err != nil {
		return nil, err
	}
	if err := c.Reg.Add(md.MD{
		Parent: TOrders, ParentPK: "o_key", ParentTID: "tid_order",
		Child: TOrderline, ChildFK: "ol_o_key", ChildTID: "tid_order",
	}); err != nil {
		return nil, err
	}
	if err := c.Reg.Add(md.MD{
		Parent: TOrders, ParentPK: "o_key", ParentTID: "tid_order",
		Child: TNewOrder, ChildFK: "no_o_key", ChildTID: "tid_order",
	}); err != nil {
		return nil, err
	}
	if err := c.loadDimensions(); err != nil {
		return nil, err
	}
	mainOrders := cfg.Orders - int(float64(cfg.Orders)*cfg.DeltaShare)
	if err := c.bulkLoadOrders(mainOrders); err != nil {
		return nil, err
	}
	if err := c.updateStockShare(cfg.DeltaShare); err != nil {
		return nil, err
	}
	for c.nextOrder <= int64(cfg.Orders) {
		if err := c.InsertOrder(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *CH) createSchema() error {
	schemas := []table.Schema{
		{Name: TRegion, Cols: []table.ColumnDef{
			{Name: "r_key", Kind: column.Int64},
			{Name: "r_name", Kind: column.String},
		}, PK: "r_key"},
		{Name: TNation, Cols: []table.ColumnDef{
			{Name: "n_key", Kind: column.Int64},
			{Name: "n_name", Kind: column.String},
			{Name: "n_r_key", Kind: column.Int64},
		}, PK: "n_key"},
		{Name: TSupplier, Cols: []table.ColumnDef{
			{Name: "su_key", Kind: column.Int64},
			{Name: "su_name", Kind: column.String},
			{Name: "su_n_key", Kind: column.Int64},
		}, PK: "su_key"},
		{Name: TItemCH, Cols: []table.ColumnDef{
			{Name: "i_id", Kind: column.Int64},
			{Name: "i_name", Kind: column.String},
			{Name: "i_data_flag", Kind: column.Int64}, // stands in for i_data LIKE '%bb'
			{Name: "i_price", Kind: column.Float64},
		}, PK: "i_id"},
		{Name: TCustomer, Cols: []table.ColumnDef{
			{Name: "c_key", Kind: column.Int64},
			{Name: "c_name", Kind: column.String},
			{Name: "c_state_a", Kind: column.Int64}, // stands in for c_state LIKE 'A%'
			{Name: "c_n_key", Kind: column.Int64},
		}, PK: "c_key"},
		{Name: TStock, Cols: []table.ColumnDef{
			{Name: "s_key", Kind: column.Int64}, // w*Items + i
			{Name: "s_w_id", Kind: column.Int64},
			{Name: "s_i_id", Kind: column.Int64},
			{Name: "s_quantity", Kind: column.Int64},
			{Name: "s_su_key", Kind: column.Int64},
		}, PK: "s_key"},
		{Name: TOrders, Cols: []table.ColumnDef{
			{Name: "o_key", Kind: column.Int64},
			{Name: "o_c_key", Kind: column.Int64},
			{Name: "o_entry_year", Kind: column.Int64},
			{Name: "o_carrier_id", Kind: column.Int64},
			{Name: "tid_order", Kind: column.Int64},
		}, PK: "o_key"},
		{Name: TNewOrder, Cols: []table.ColumnDef{
			{Name: "no_key", Kind: column.Int64},
			{Name: "no_o_key", Kind: column.Int64},
			{Name: "tid_order", Kind: column.Int64},
		}, PK: "no_key"},
		{Name: TOrderline, Cols: []table.ColumnDef{
			{Name: "ol_key", Kind: column.Int64},
			{Name: "ol_o_key", Kind: column.Int64},
			{Name: "ol_i_id", Kind: column.Int64},
			{Name: "ol_stock_key", Kind: column.Int64}, // supply_w*Items + i
			{Name: "ol_amount", Kind: column.Float64},
			{Name: "tid_order", Kind: column.Int64},
		}, PK: "ol_key"},
	}
	for _, s := range schemas {
		if _, err := c.DB.Create(s); err != nil {
			return err
		}
	}
	return nil
}

// loadDimensions populates and merges the static tables: region, nation,
// supplier, item, customer, and the initial stock.
func (c *CH) loadDimensions() error {
	ins := func(tname string, rows [][]column.Value) error {
		tx := c.DB.Txns().Begin()
		t := c.DB.MustTable(tname)
		for _, r := range rows {
			if _, err := t.Insert(tx, r); err != nil {
				tx.Abort()
				return err
			}
		}
		tx.Commit()
		return nil
	}
	var rows [][]column.Value
	for i, name := range chRegions {
		rows = append(rows, []column.Value{column.IntV(int64(i)), column.StrV(name)})
	}
	if err := ins(TRegion, rows); err != nil {
		return err
	}
	rows = rows[:0]
	for i, n := range chNations {
		rows = append(rows, []column.Value{column.IntV(int64(i)), column.StrV(n.name), column.IntV(n.region)})
	}
	if err := ins(TNation, rows); err != nil {
		return err
	}
	rows = rows[:0]
	for s := 0; s < c.Cfg.Suppliers; s++ {
		rows = append(rows, []column.Value{
			column.IntV(int64(s)),
			column.StrV(fmt.Sprintf("Supplier#%05d", s)),
			column.IntV(c.rng.Int63n(int64(len(chNations)))),
		})
	}
	if err := ins(TSupplier, rows); err != nil {
		return err
	}
	rows = rows[:0]
	for i := 0; i < c.Cfg.Items; i++ {
		flag := int64(0)
		if c.rng.Intn(10) == 0 { // ~10% match i_data LIKE '%bb'
			flag = 1
		}
		rows = append(rows, []column.Value{
			column.IntV(int64(i)),
			column.StrV(fmt.Sprintf("Item#%05d", i)),
			column.IntV(flag),
			column.FloatV(float64(1 + c.rng.Intn(100))),
		})
	}
	if err := ins(TItemCH, rows); err != nil {
		return err
	}
	rows = rows[:0]
	for k := 0; k < c.Cfg.Customers; k++ {
		stateA := int64(0)
		if c.rng.Intn(8) == 0 { // ~12% match c_state LIKE 'A%'
			stateA = 1
		}
		rows = append(rows, []column.Value{
			column.IntV(int64(k)),
			column.StrV(fmt.Sprintf("Customer#%06d", k)),
			column.IntV(stateA),
			column.IntV(c.rng.Int63n(int64(len(chNations)))),
		})
	}
	if err := ins(TCustomer, rows); err != nil {
		return err
	}
	rows = rows[:0]
	for w := 0; w < c.Cfg.Warehouses; w++ {
		for i := 0; i < c.Cfg.Items; i++ {
			rows = append(rows, []column.Value{
				column.IntV(int64(w*c.Cfg.Items + i)),
				column.IntV(int64(w)),
				column.IntV(int64(i)),
				column.IntV(10 + c.rng.Int63n(90)),
				column.IntV(int64((w*7 + i) % c.Cfg.Suppliers)), // deterministic supplier mapping
			})
		}
	}
	if err := ins(TStock, rows); err != nil {
		return err
	}
	return c.DB.MergeTablesOnline(false, TRegion, TNation, TSupplier, TItemCH, TCustomer, TStock)
}

// orderRows builds the rows of one order business object with the given
// creation TID.
func (c *CH) orderRows(tid txn.TID) (order []column.Value, lines [][]column.Value, newOrder [][]column.Value) {
	oid := c.nextOrder
	c.nextOrder++
	order = []column.Value{
		column.IntV(oid),
		column.IntV(c.rng.Int63n(int64(c.Cfg.Customers))),
		column.IntV(2010 + oid*5/int64(c.Cfg.Orders+1)), // entry year correlates with order id
		column.IntV(c.rng.Int63n(10)),
		column.IntV(int64(tid)),
	}
	for j := 0; j < c.Cfg.LinesPerOrder; j++ {
		i := c.rng.Int63n(int64(c.Cfg.Items))
		w := c.rng.Int63n(int64(c.Cfg.Warehouses))
		lines = append(lines, []column.Value{
			column.IntV(c.nextLine),
			column.IntV(oid),
			column.IntV(i),
			column.IntV(w*int64(c.Cfg.Items) + i),
			column.FloatV(float64(1 + c.rng.Intn(10000))),
			column.IntV(int64(tid)),
		})
		c.nextLine++
	}
	// TPC-C keeps a NewOrder row for the most recent ~third of orders.
	if oid > int64(c.Cfg.Orders)*2/3 {
		newOrder = append(newOrder, []column.Value{
			column.IntV(c.nextNO),
			column.IntV(oid),
			column.IntV(int64(tid)),
		})
		c.nextNO++
	}
	return order, lines, newOrder
}

// bulkLoadOrders loads n orders (with their lines and neworder rows)
// straight into the main stores with synthetic increasing TIDs.
func (c *CH) bulkLoadOrders(n int) error {
	base := c.DB.Txns().Watermark()
	var orders, lines, nos [][]column.Value
	var otids, ltids, ntids []txn.TID
	c.nextOrder, c.nextLine, c.nextNO = 1, 1, 1
	for k := 0; k < n; k++ {
		tid := base + txn.TID(k) + 1
		o, ls, no := c.orderRows(tid)
		orders = append(orders, o)
		otids = append(otids, tid)
		for _, l := range ls {
			lines = append(lines, l)
			ltids = append(ltids, tid)
		}
		for _, r := range no {
			nos = append(nos, r)
			ntids = append(ntids, tid)
		}
	}
	if err := c.DB.MustTable(TOrders).BulkLoadMain(0, orders, otids); err != nil {
		return err
	}
	if err := c.DB.MustTable(TOrderline).BulkLoadMain(0, lines, ltids); err != nil {
		return err
	}
	if err := c.DB.MustTable(TNewOrder).BulkLoadMain(0, nos, ntids); err != nil {
		return err
	}
	c.DB.Txns().AdvanceTo(base + txn.TID(n))
	return nil
}

// InsertOrder inserts one order business object through the regular delta
// path, enforcing the matching dependencies.
func (c *CH) InsertOrder() error {
	tx := c.DB.Txns().Begin()
	o, lines, nos := c.orderRows(tx.ID())
	if _, err := c.DB.MustTable(TOrders).Insert(tx, o); err != nil {
		tx.Abort()
		return err
	}
	for _, l := range lines {
		if err := c.Reg.FillChildTIDs(TOrderline, l); err != nil {
			tx.Abort()
			return err
		}
		if _, err := c.DB.MustTable(TOrderline).Insert(tx, l); err != nil {
			tx.Abort()
			return err
		}
	}
	for _, no := range nos {
		if err := c.Reg.FillChildTIDs(TNewOrder, no); err != nil {
			tx.Abort()
			return err
		}
		if _, err := c.DB.MustTable(TNewOrder).Insert(tx, no); err != nil {
			tx.Abort()
			return err
		}
	}
	tx.Commit()
	return nil
}

// updateStockShare updates a fraction of stock rows in place (quantity
// change), invalidating the main version and writing the new version to the
// delta store — the stock delta population of Sec. 6.4.
func (c *CH) updateStockShare(share float64) error {
	stock := c.DB.MustTable(TStock)
	total := c.Cfg.Warehouses * c.Cfg.Items
	n := int(float64(total) * share)
	for k := 0; k < n; k++ {
		key := c.rng.Int63n(int64(total))
		tx := c.DB.Txns().Begin()
		if err := stock.Update(tx, key, map[string]column.Value{
			"s_quantity": column.IntV(10 + c.rng.Int63n(90)),
		}); err != nil {
			tx.Abort()
			return err
		}
		tx.Commit()
	}
	return nil
}

// Q3 is the CH-benCHmark Q3 adaptation: unshipped-order revenue by order,
// for customers in 'A%' states.
func (c *CH) Q3() *query.Query {
	return &query.Query{
		Tables: []string{TCustomer, TOrders, TNewOrder, TOrderline},
		Joins: []query.JoinEdge{
			{Left: query.ColRef{Table: TCustomer, Col: "c_key"}, Right: query.ColRef{Table: TOrders, Col: "o_c_key"}},
			{Left: query.ColRef{Table: TOrders, Col: "o_key"}, Right: query.ColRef{Table: TNewOrder, Col: "no_o_key"}},
			{Left: query.ColRef{Table: TOrders, Col: "o_key"}, Right: query.ColRef{Table: TOrderline, Col: "ol_o_key"}},
		},
		Filters: map[string]expr.Pred{
			TCustomer: expr.Cmp{Col: "c_state_a", Op: expr.Eq, Val: column.IntV(1)},
		},
		GroupBy: []query.ColRef{{Table: TOrders, Col: "o_entry_year"}},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: TOrderline, Col: "ol_amount"}, As: "revenue"},
			{Func: query.Count, As: "n"},
		},
	}
}

// Q5 is the CH-benCHmark Q5 adaptation: local supplier volume by nation
// for one region. (The original's customer-nation = supplier-nation side
// condition is dropped: the engine supports tree-shaped equi-join plans
// only; the join graph and table count are preserved.)
func (c *CH) Q5() *query.Query {
	return &query.Query{
		Tables: []string{TCustomer, TOrders, TOrderline, TStock, TSupplier, TNation, TRegion},
		Joins: []query.JoinEdge{
			{Left: query.ColRef{Table: TCustomer, Col: "c_key"}, Right: query.ColRef{Table: TOrders, Col: "o_c_key"}},
			{Left: query.ColRef{Table: TOrders, Col: "o_key"}, Right: query.ColRef{Table: TOrderline, Col: "ol_o_key"}},
			{Left: query.ColRef{Table: TOrderline, Col: "ol_stock_key"}, Right: query.ColRef{Table: TStock, Col: "s_key"}},
			{Left: query.ColRef{Table: TStock, Col: "s_su_key"}, Right: query.ColRef{Table: TSupplier, Col: "su_key"}},
			{Left: query.ColRef{Table: TSupplier, Col: "su_n_key"}, Right: query.ColRef{Table: TNation, Col: "n_key"}},
			{Left: query.ColRef{Table: TNation, Col: "n_r_key"}, Right: query.ColRef{Table: TRegion, Col: "r_key"}},
		},
		Filters: map[string]expr.Pred{
			TRegion: expr.Cmp{Col: "r_name", Op: expr.Eq, Val: column.StrV("EUROPE")},
		},
		GroupBy: []query.ColRef{{Table: TNation, Col: "n_name"}},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: TOrderline, Col: "ol_amount"}, As: "revenue"},
		},
	}
}

// Q9 is the CH-benCHmark Q9 adaptation: profit of 'bb' products by nation
// and year.
func (c *CH) Q9() *query.Query {
	return &query.Query{
		Tables: []string{TOrderline, TOrders, TStock, TSupplier, TNation, TItemCH},
		Joins: []query.JoinEdge{
			{Left: query.ColRef{Table: TOrderline, Col: "ol_o_key"}, Right: query.ColRef{Table: TOrders, Col: "o_key"}},
			{Left: query.ColRef{Table: TOrderline, Col: "ol_stock_key"}, Right: query.ColRef{Table: TStock, Col: "s_key"}},
			{Left: query.ColRef{Table: TStock, Col: "s_su_key"}, Right: query.ColRef{Table: TSupplier, Col: "su_key"}},
			{Left: query.ColRef{Table: TSupplier, Col: "su_n_key"}, Right: query.ColRef{Table: TNation, Col: "n_key"}},
			{Left: query.ColRef{Table: TOrderline, Col: "ol_i_id"}, Right: query.ColRef{Table: TItemCH, Col: "i_id"}},
		},
		Filters: map[string]expr.Pred{
			TItemCH: expr.Cmp{Col: "i_data_flag", Op: expr.Eq, Val: column.IntV(1)},
		},
		GroupBy: []query.ColRef{
			{Table: TNation, Col: "n_name"},
			{Table: TOrders, Col: "o_entry_year"},
		},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: TOrderline, Col: "ol_amount"}, As: "sum_profit"},
		},
	}
}

// Q10 is the CH-benCHmark Q10 adaptation: returned-item revenue by
// customer nation.
func (c *CH) Q10() *query.Query {
	return &query.Query{
		Tables: []string{TCustomer, TOrders, TOrderline, TNation},
		Joins: []query.JoinEdge{
			{Left: query.ColRef{Table: TCustomer, Col: "c_key"}, Right: query.ColRef{Table: TOrders, Col: "o_c_key"}},
			{Left: query.ColRef{Table: TOrders, Col: "o_key"}, Right: query.ColRef{Table: TOrderline, Col: "ol_o_key"}},
			{Left: query.ColRef{Table: TCustomer, Col: "c_n_key"}, Right: query.ColRef{Table: TNation, Col: "n_key"}},
		},
		Filters: map[string]expr.Pred{
			TOrders: expr.Cmp{Col: "o_entry_year", Op: expr.Ge, Val: column.IntV(2013)},
		},
		GroupBy: []query.ColRef{{Table: TNation, Col: "n_name"}},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: TOrderline, Col: "ol_amount"}, As: "revenue"},
			{Func: query.Count, As: "n"},
		},
	}
}

// Queries returns the four analytical queries of the Fig. 9 experiment,
// keyed by their TPC-H-derived names.
func (c *CH) Queries() map[string]*query.Query {
	return map[string]*query.Query{
		"Q3":  c.Q3(),
		"Q5":  c.Q5(),
		"Q9":  c.Q9(),
		"Q10": c.Q10(),
	}
}
