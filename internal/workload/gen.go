package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/query"
	"aggcache/internal/table"
	"aggcache/internal/txn"
)

// erpGen is the deterministic row generator shared by the unsharded and
// sharded ERP builders. Both consume its random stream in the same order
// for the same operation sequence, so a sharded database holds rows
// byte-identical to the unsharded one — the property the shard
// transparency oracle depends on.
type erpGen struct {
	cfg        ERPConfig
	rng        *rand.Rand
	nextHeader int64
	nextItem   int64
	// catTID records the insertion TID of each category's language rows so
	// the generator can fill Item's tidCategory column (all language
	// variants of a category are inserted in one transaction and share it).
	catTID map[int64]txn.TID
	// The bounded string domains, rendered once and indexed by the random
	// draw that picks a value, so generating a row formats no string.
	users, materials, plants, costCenters, accounts []string
}

func newERPGen(cfg ERPConfig) *erpGen {
	return &erpGen{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		nextHeader:  1,
		nextItem:    1,
		catTID:      make(map[int64]txn.TID),
		users:       numbered("user-", 3, 500),
		materials:   numbered("MAT-", 5, 5000),
		plants:      numbered("P", 2, 20),
		costCenters: numbered("CC-", 4, 300),
		accounts:    numbered("ACC-", 5, 1000),
	}
}

// numbered renders prefix followed by 0..n-1 zero-padded to width digits.
func numbered(prefix string, width, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = padded(prefix, int64(i), width)
	}
	return out
}

// padded renders prefix followed by v zero-padded to width digits, as
// fmt.Sprintf(prefix+"%0<width>d", v) does for v >= 0.
func padded(prefix string, v int64, width int) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], v, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// erpSchemas returns the three ERP table schemas. The payload columns
// (document number, users, cost centers, materials, plants, ...) stand in
// for the dozens of descriptive attributes of real financial-accounting
// tables; without them the relative footprint of the tid columns would be
// overstated.
func erpSchemas() (header, item, cat table.Schema) {
	header = table.Schema{
		Name: THeader,
		Cols: []table.ColumnDef{
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "FiscalYear", Kind: column.Int64},
			{Name: "Region", Kind: column.String},
			{Name: "DocNumber", Kind: column.String},
			{Name: "CreatedBy", Kind: column.String},
			{Name: "CompanyCode", Kind: column.String},
			{Name: "TidHeader", Kind: column.Int64},
		},
		PK: "HeaderID",
	}
	item = table.Schema{
		Name: TItem,
		Cols: []table.ColumnDef{
			{Name: "ItemID", Kind: column.Int64},
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "CategoryID", Kind: column.Int64},
			{Name: "Price", Kind: column.Float64},
			{Name: "Quantity", Kind: column.Int64},
			{Name: "Material", Kind: column.String},
			{Name: "Plant", Kind: column.String},
			{Name: "CostCenter", Kind: column.String},
			{Name: "Account", Kind: column.String},
			{Name: "Unit", Kind: column.String},
			{Name: "TidItem", Kind: column.Int64},
			{Name: "TidHeader", Kind: column.Int64},
			{Name: "TidCategory", Kind: column.Int64},
		},
		PK: "ItemID",
	}
	cat = table.Schema{
		Name: TCategory,
		Cols: []table.ColumnDef{
			{Name: "CatRowID", Kind: column.Int64},
			{Name: "CategoryID", Kind: column.Int64},
			{Name: "Name", Kind: column.String},
			{Name: "Language", Kind: column.String},
			{Name: "TidCategory", Kind: column.Int64},
		},
		PK: "CatRowID",
	}
	return header, item, cat
}

var (
	regions      = []string{"EMEA", "AMER", "APAC"}
	companyCodes = []string{"1000", "2000", "3000"}
	units        = []string{"EA", "KG", "M", "L"}
)

// headerRow builds one header row.
func (g *erpGen) headerRow(hid int64, year int, tid txn.TID) []column.Value {
	return []column.Value{
		column.IntV(hid),
		column.IntV(int64(year)),
		column.StrV(regions[int(hid)%len(regions)]),
		column.StrV(padded("DOC-", hid, 9)),
		column.StrV(g.users[g.rng.Intn(500)]),
		column.StrV(companyCodes[int(hid)%len(companyCodes)]),
		column.IntV(int64(tid)),
	}
}

// itemRow builds one item row; tidHeader 0 leaves the MD column for
// FillChildTIDs to enforce.
func (g *erpGen) itemRow(hid int64, tidItem, tidHeader txn.TID) []column.Value {
	catID := 1 + g.rng.Int63n(int64(g.cfg.Categories))
	row := []column.Value{
		column.IntV(g.nextItem),
		column.IntV(hid),
		column.IntV(catID),
		column.FloatV(float64(1 + g.rng.Intn(1000))),
		column.IntV(1 + g.rng.Int63n(50)),
		column.StrV(g.materials[g.rng.Intn(5000)]),
		column.StrV(g.plants[g.rng.Intn(20)]),
		column.StrV(g.costCenters[g.rng.Intn(300)]),
		column.StrV(g.accounts[g.rng.Intn(1000)]),
		column.StrV(units[g.rng.Intn(len(units))]),
		column.IntV(int64(tidItem)),
		column.IntV(int64(tidHeader)),
		column.IntV(int64(g.catTID[catID])),
	}
	g.nextItem++
	return row
}

// loadDimensionInto inserts the category rows into one database (one
// transaction per category, all language variants sharing its TID) and
// merges them into main — settled master data with an empty delta. The
// recorded catTID values are identical for every database loaded this way,
// because dimension load is the first transaction activity after Open.
func (g *erpGen) loadDimensionInto(db *table.DB) error {
	cat := db.MustTable(TCategory)
	rowID := int64(1)
	for c := 1; c <= g.cfg.Categories; c++ {
		tx := db.Txns().Begin()
		g.catTID[int64(c)] = tx.ID()
		for _, lang := range g.cfg.Languages {
			vals := []column.Value{
				column.IntV(rowID),
				column.IntV(int64(c)),
				column.StrV(fmt.Sprintf("Category-%04d-%s", c, lang)),
				column.StrV(lang),
				column.IntV(int64(tx.ID())),
			}
			rowID++
			if _, err := cat.Insert(tx, vals); err != nil {
				tx.Abort()
				return err
			}
		}
		tx.Commit()
	}
	return db.MergeTablesOnline(false, TCategory)
}

// erpQueries are the query shapes of the ERP workload, the same at every
// shard count; ERP and ShardedERP both embed them.
type erpQueries struct{}

// ProfitQuery is the paper's Listing 1: profit per product category for one
// fiscal year, in one language.
func (erpQueries) ProfitQuery(year int, language string) *query.Query {
	return &query.Query{
		Tables: []string{THeader, TItem, TCategory},
		Joins: []query.JoinEdge{
			{Left: query.ColRef{Table: THeader, Col: "HeaderID"}, Right: query.ColRef{Table: TItem, Col: "HeaderID"}},
			{Left: query.ColRef{Table: TItem, Col: "CategoryID"}, Right: query.ColRef{Table: TCategory, Col: "CategoryID"}},
		},
		Filters: map[string]expr.Pred{
			THeader:   expr.Cmp{Col: "FiscalYear", Op: expr.Eq, Val: column.IntV(int64(year))},
			TCategory: expr.Cmp{Col: "Language", Op: expr.Eq, Val: column.StrV(language)},
		},
		GroupBy: []query.ColRef{{Table: TCategory, Col: "Name"}},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: TItem, Col: "Price"}, As: "Profit"},
		},
	}
}

// YearRangeQuery aggregates items whose headers fall in [loYear, hiYear] —
// the selectivity knob of the hot/cold experiment (Fig. 11).
func (erpQueries) YearRangeQuery(loYear, hiYear int) *query.Query {
	return &query.Query{
		Tables: []string{THeader, TItem},
		Joins: []query.JoinEdge{
			{Left: query.ColRef{Table: THeader, Col: "HeaderID"}, Right: query.ColRef{Table: TItem, Col: "HeaderID"}},
		},
		Filters: map[string]expr.Pred{
			THeader: expr.NewAnd(
				expr.Cmp{Col: "FiscalYear", Op: expr.Ge, Val: column.IntV(int64(loYear))},
				expr.Cmp{Col: "FiscalYear", Op: expr.Le, Val: column.IntV(int64(hiYear))},
			),
		},
		GroupBy: []query.ColRef{{Table: TItem, Col: "CategoryID"}},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: TItem, Col: "Price"}, As: "Revenue"},
			{Func: query.Count, As: "N"},
		},
	}
}

// HeaderCountQuery is a single-table aggregate over Header — the shape used
// by the maintenance-strategy experiment (Sec. 6.1).
func (erpQueries) HeaderCountQuery() *query.Query {
	return &query.Query{
		Tables:  []string{THeader},
		GroupBy: []query.ColRef{{Table: THeader, Col: "FiscalYear"}},
		Aggs: []query.AggSpec{
			{Func: query.Count, As: "N"},
		},
	}
}

// ItemRevenueQuery is a single-table aggregate over Item grouped by
// category: the per-aggregate shape maintained by the materialized-view
// baselines in the Fig. 6 experiment.
func (erpQueries) ItemRevenueQuery() *query.Query {
	return &query.Query{
		Tables:  []string{TItem},
		GroupBy: []query.ColRef{{Table: TItem, Col: "CategoryID"}},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: TItem, Col: "Price"}, As: "Revenue"},
			{Func: query.Count, As: "N"},
		},
	}
}
