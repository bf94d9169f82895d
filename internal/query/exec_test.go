package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/table"
)

// buildERP creates the paper's three-table schema: Header, Item, and the
// ProductCategory dimension, with some rows merged into main and some left
// in delta.
func buildERP(t testing.TB) *table.DB {
	t.Helper()
	db := table.Open()
	mustCreate(t, db, table.Schema{
		Name: "Header",
		Cols: []table.ColumnDef{
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "FiscalYear", Kind: column.Int64},
		},
		PK: "HeaderID",
	})
	mustCreate(t, db, table.Schema{
		Name: "Item",
		Cols: []table.ColumnDef{
			{Name: "ItemID", Kind: column.Int64},
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "CategoryID", Kind: column.Int64},
			{Name: "Price", Kind: column.Float64},
		},
		PK: "ItemID",
	})
	mustCreate(t, db, table.Schema{
		Name: "ProductCategory",
		Cols: []table.ColumnDef{
			{Name: "CategoryID", Kind: column.Int64},
			{Name: "Name", Kind: column.String},
			{Name: "Language", Kind: column.String},
		},
	})
	return db
}

func mustCreate(t testing.TB, db *table.DB, s table.Schema) *table.Table {
	t.Helper()
	tbl, err := db.Create(s)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func insert(t testing.TB, db *table.DB, name string, vals ...column.Value) {
	t.Helper()
	tx := db.Txns().Begin()
	if _, err := db.MustTable(name).Insert(tx, vals); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
}

// seedERP loads two headers with three items into main, then adds one
// header with one item to the deltas, yielding matching rows spread across
// all four Header x Item store combinations' inputs.
func seedERP(t testing.TB, db *table.DB) {
	t.Helper()
	insert(t, db, "ProductCategory", column.IntV(1), column.StrV("Food"), column.StrV("ENG"))
	insert(t, db, "ProductCategory", column.IntV(1), column.StrV("Essen"), column.StrV("GER"))
	insert(t, db, "ProductCategory", column.IntV(2), column.StrV("Tools"), column.StrV("ENG"))

	insert(t, db, "Header", column.IntV(100), column.IntV(2013))
	insert(t, db, "Header", column.IntV(200), column.IntV(2012))
	insert(t, db, "Item", column.IntV(1), column.IntV(100), column.IntV(1), column.FloatV(30))
	insert(t, db, "Item", column.IntV(2), column.IntV(100), column.IntV(2), column.FloatV(50))
	insert(t, db, "Item", column.IntV(3), column.IntV(200), column.IntV(1), column.FloatV(20))
	if err := db.MergeTablesOnline(false, "Header", "Item", "ProductCategory"); err != nil {
		t.Fatal(err)
	}
	// Delta rows: a new business object, plus a late item for header 100.
	insert(t, db, "Header", column.IntV(300), column.IntV(2013))
	insert(t, db, "Item", column.IntV(4), column.IntV(300), column.IntV(1), column.FloatV(40))
	insert(t, db, "Item", column.IntV(5), column.IntV(100), column.IntV(1), column.FloatV(5))
}

// listing1 is the paper's sample profit-per-category query.
func listing1() *Query {
	return &Query{
		Tables: []string{"Header", "Item", "ProductCategory"},
		Joins: []JoinEdge{
			{Left: ColRef{Table: "Header", Col: "HeaderID"}, Right: ColRef{Table: "Item", Col: "HeaderID"}},
			{Left: ColRef{Table: "Item", Col: "CategoryID"}, Right: ColRef{Table: "ProductCategory", Col: "CategoryID"}},
		},
		Filters: map[string]expr.Pred{
			"ProductCategory": expr.Cmp{Col: "Language", Op: expr.Eq, Val: column.StrV("ENG")},
			"Header":          expr.Cmp{Col: "FiscalYear", Op: expr.Eq, Val: column.IntV(2013)},
		},
		GroupBy: []ColRef{{Table: "ProductCategory", Col: "Name"}},
		Aggs: []AggSpec{
			{Func: Sum, Col: ColRef{Table: "Item", Col: "Price"}, As: "Profit"},
		},
	}
}

func TestValidateAcceptsListing1(t *testing.T) {
	db := buildERP(t)
	if err := listing1().Validate(db); err != nil {
		t.Fatal(err)
	}
}

// Regression: ExecuteAll does not run Validate, and a join of an int64 with
// a string column silently returned an empty result. The join phase now
// refuses it with Validate's error, whichever side the edge names first.
func TestExecuteAllRejectsMismatchedJoinKinds(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	q := listing1()
	q.Joins[1] = JoinEdge{Left: ColRef{Table: "Item", Col: "CategoryID"}, Right: ColRef{Table: "ProductCategory", Col: "Name"}}
	want := q.Validate(db)
	if want == nil || !strings.Contains(want.Error(), "compares int64 with string") {
		t.Fatalf("Validate = %v, want a kind mismatch", want)
	}
	for _, flip := range []bool{false, true} {
		if flip {
			e := &q.Joins[1]
			e.Left, e.Right = e.Right, e.Left
			want = fmt.Errorf("query: join %s compares string with int64", e)
		}
		_, _, err := (&Executor{DB: db, Workers: 1}).ExecuteAll(q, db.Txns().ReadSnapshot())
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("ExecuteAll error = %v, want %q", err, want)
		}
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	db := buildERP(t)
	mutate := []func(*Query){
		func(q *Query) { q.Tables = nil },
		func(q *Query) { q.Tables = []string{"Header", "Nope", "ProductCategory"} },
		func(q *Query) { q.Tables = []string{"Header", "Header", "Item"} },
		func(q *Query) { q.Joins = q.Joins[:1] },
		func(q *Query) { q.Joins[0].Right.Table = "ProductCategory" },
		func(q *Query) { q.Joins[1].Left.Table = "ProductCategory" },
		func(q *Query) { q.Joins[0].Left.Col = "Nope" },
		func(q *Query) { q.Joins[0].Left.Col = "FiscalYear"; q.Joins[0].Right.Col = "Price" },
		func(q *Query) { q.Filters["Unknown"] = expr.True{} },
		func(q *Query) { q.Filters["Header"] = expr.Cmp{Col: "Nope", Op: expr.Eq, Val: column.IntV(1)} },
		func(q *Query) { q.GroupBy = []ColRef{{Table: "Nope", Col: "X"}} },
		func(q *Query) { q.GroupBy = []ColRef{{Table: "Header", Col: "Nope"}} },
		func(q *Query) { q.Aggs = nil },
		func(q *Query) { q.Aggs[0].Col = ColRef{} },
		func(q *Query) { q.Aggs[0].Col = ColRef{Table: "Nope", Col: "X"} },
		func(q *Query) { q.Aggs[0].Col = ColRef{Table: "ProductCategory", Col: "Name"} },
		func(q *Query) { q.Aggs[0].Col.Col = "Nope" },
	}
	for i, m := range mutate {
		q := listing1()
		m(q)
		if err := q.Validate(db); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSelfMaintainable(t *testing.T) {
	q := listing1()
	if !q.SelfMaintainable() {
		t.Fatal("SUM query must be self-maintainable")
	}
	q.Aggs = append(q.Aggs, AggSpec{Func: Max, Col: ColRef{Table: "Item", Col: "Price"}})
	if q.SelfMaintainable() {
		t.Fatal("MAX query must not be self-maintainable")
	}
}

func TestFingerprint(t *testing.T) {
	a, b := listing1(), listing1()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical queries produced different fingerprints")
	}
	// The fingerprint is memoized, so differing queries must be built
	// fresh (the documented immutable-after-execution contract).
	b2 := listing1()
	b2.Filters["Header"] = expr.Cmp{Col: "FiscalYear", Op: expr.Eq, Val: column.IntV(2014)}
	if a.Fingerprint() == b2.Fingerprint() {
		t.Fatal("different filters share a fingerprint")
	}
	c := listing1()
	c.GroupBy = nil
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different grouping shares a fingerprint")
	}
	// Memoization: repeated calls return the identical string.
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
}

// TestShapeNormalizesConstants: queries differing only in filter literals
// share one shape (the per-shape profiler key) while their fingerprints
// (the cache key) stay distinct, and structural changes still split shapes.
func TestShapeNormalizesConstants(t *testing.T) {
	a := listing1()
	b := listing1()
	b.Filters["Header"] = expr.Cmp{Col: "FiscalYear", Op: expr.Eq, Val: column.IntV(2014)}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("literal change must split fingerprints")
	}
	if a.Shape() != b.Shape() {
		t.Fatalf("literal-only variants must share a shape:\n%s\n%s", a.Shape(), b.Shape())
	}
	if !strings.Contains(a.Shape(), "?") || strings.Contains(a.Shape(), "2013") {
		t.Fatalf("shape leaks literals: %s", a.Shape())
	}
	// Structural variation — a different grouping — splits shapes.
	c := listing1()
	c.GroupBy = nil
	if a.Shape() == c.Shape() {
		t.Fatal("different grouping shares a shape")
	}
	// A filter on a different column splits shapes even at the same value.
	d := listing1()
	d.Filters["Item"] = expr.Cmp{Col: "Price", Op: expr.Gt, Val: column.IntV(0)}
	if a.Shape() == d.Shape() {
		t.Fatal("extra filter column shares a shape")
	}
	if a.Shape() != a.Shape() {
		t.Fatal("shape not stable")
	}
}

func TestAllCombosCount(t *testing.T) {
	db := buildERP(t)
	q := listing1()
	combos := AllCombos(db, q)
	if len(combos) != 8 {
		t.Fatalf("3 single-partition tables must yield 8 combos, got %d", len(combos))
	}
	allMain := 0
	for _, c := range combos {
		if c.IsAllMain() {
			allMain++
		}
	}
	if allMain != 1 {
		t.Fatalf("all-main combos = %d, want 1", allMain)
	}
}

func TestExecuteAllListing1(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	ex := &Executor{DB: db}
	res, st, err := ex.ExecuteAll(listing1(), db.Txns().ReadSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Fiscal 2013 headers: 100 (main) and 300 (delta). ENG categories only.
	// Items: 1 (Food,30,main), 2 (Tools,50,main), 4 (Food,40,delta),
	// 5 (Food,5,delta). Expected: Food=75, Tools=50.
	rows := res.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want 2 groups", rows)
	}
	got := map[string]float64{}
	for _, r := range rows {
		got[r.Keys[0].S] = r.Aggs[0].F
	}
	if got["Food"] != 75 || got["Tools"] != 50 {
		t.Fatalf("got %v, want Food=75 Tools=50", got)
	}
	if st.Subjoins != 8 || st.Executed != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExecuteRespectsInvalidation(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	// Invalidate item 2 (Tools, 50): the group must disappear.
	tx := db.Txns().Begin()
	if err := db.MustTable("Item").Delete(tx, 2); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	ex := &Executor{DB: db}
	res, _, err := ex.ExecuteAll(listing1(), db.Txns().ReadSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0].Keys[0].S != "Food" || rows[0].Aggs[0].F != 75 {
		t.Fatalf("rows = %+v, want only Food=75", rows)
	}
}

func TestExecuteComboSingleSubjoin(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	ex := &Executor{DB: db}
	q := listing1()
	// Delta-only Header x Item with main dimension: only header 300 with
	// item 4 matches.
	combo := Combo{
		{Table: "Header", Part: 0, Main: false},
		{Table: "Item", Part: 0, Main: false},
		{Table: "ProductCategory", Part: 0, Main: true},
	}
	out := NewAggTable(q.Aggs)
	var st Stats
	if err := ex.ExecuteCombo(q, combo, db.Txns().ReadSnapshot(), nil, out, &st); err != nil {
		t.Fatal(err)
	}
	rows := out.Rows()
	if len(rows) != 1 || rows[0].Aggs[0].F != 40 {
		t.Fatalf("delta-delta subjoin = %+v, want Food=40", rows)
	}
}

func TestExecuteComboExtraFilter(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	ex := &Executor{DB: db}
	q := listing1()
	combo := Combo{
		{Table: "Header", Part: 0, Main: true},
		{Table: "Item", Part: 0, Main: true},
		{Table: "ProductCategory", Part: 0, Main: true},
	}
	extra := map[string]expr.Pred{
		"Item": expr.Cmp{Col: "Price", Op: expr.Gt, Val: column.FloatV(40)},
	}
	out := NewAggTable(q.Aggs)
	var st Stats
	if err := ex.ExecuteCombo(q, combo, db.Txns().ReadSnapshot(), extra, out, &st); err != nil {
		t.Fatal(err)
	}
	rows := out.Rows()
	if len(rows) != 1 || rows[0].Keys[0].S != "Tools" {
		t.Fatalf("extra-filtered subjoin = %+v, want only Tools", rows)
	}
}

func TestExecuteComboErrors(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	ex := &Executor{DB: db}
	q := listing1()
	var st Stats
	if err := ex.ExecuteCombo(q, Combo{}, db.Txns().ReadSnapshot(), nil, NewAggTable(q.Aggs), &st); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	bad := listing1()
	bad.Filters["Item"] = expr.Cmp{Col: "Nope", Op: expr.Eq, Val: column.IntV(1)}
	combo := AllCombos(db, bad)[0]
	if err := ex.ExecuteCombo(bad, combo, db.Txns().ReadSnapshot(), nil, NewAggTable(bad.Aggs), &st); err == nil {
		t.Fatal("bad filter accepted at execution")
	}
}

func TestCountStarAndAvg(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	q := listing1()
	q.Aggs = []AggSpec{
		{Func: Count, As: "N"},
		{Func: Avg, Col: ColRef{Table: "Item", Col: "Price"}, As: "AvgPrice"},
	}
	if err := q.Validate(db); err != nil {
		t.Fatal(err)
	}
	ex := &Executor{DB: db}
	res, _, err := ex.ExecuteAll(q, db.Txns().ReadSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][2]float64{}
	for _, r := range res.Rows() {
		got[r.Keys[0].S] = [2]float64{float64(r.Aggs[0].I), r.Aggs[1].F}
	}
	if got["Food"] != [2]float64{3, 25} || got["Tools"] != [2]float64{1, 50} {
		t.Fatalf("got %v", got)
	}
}

// referenceJoin computes the Header-Item join sum per category with plain
// nested loops over all visible rows — the oracle for the property test.
func referenceJoin(db *table.DB) map[int64]float64 {
	snap := db.Txns().ReadSnapshot()
	type hrow struct{ id, year int64 }
	var headers []hrow
	for _, p := range db.MustTable("Header").Partitions() {
		for _, st := range p.Stores() {
			for r := 0; r < st.Rows(); r++ {
				if snap.Sees(st.CreateTID(r), st.InvalidTID(r)) {
					headers = append(headers, hrow{st.Col(0).Int64(r), st.Col(1).Int64(r)})
				}
			}
		}
	}
	out := map[int64]float64{}
	for _, p := range db.MustTable("Item").Partitions() {
		for _, st := range p.Stores() {
			for r := 0; r < st.Rows(); r++ {
				if !snap.Sees(st.CreateTID(r), st.InvalidTID(r)) {
					continue
				}
				hid := st.Col(1).Int64(r)
				for _, h := range headers {
					if h.id == hid {
						out[st.Col(2).Int64(r)] += st.Col(3).Value(r).F
					}
				}
			}
		}
	}
	return out
}

// Property: for random insert/merge/delete interleavings, the executor's
// join-aggregate equals the nested-loop oracle.
func TestQuickExecutorMatchesOracle(t *testing.T) {
	q := &Query{
		Tables: []string{"Header", "Item"},
		Joins: []JoinEdge{
			{Left: ColRef{Table: "Header", Col: "HeaderID"}, Right: ColRef{Table: "Item", Col: "HeaderID"}},
		},
		GroupBy: []ColRef{{Table: "Item", Col: "CategoryID"}},
		Aggs:    []AggSpec{{Func: Sum, Col: ColRef{Table: "Item", Col: "Price"}, As: "S"}},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := buildERP(t)
		nextHeader, nextItem := int64(1), int64(1)
		var headerIDs, itemIDs []int64
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // new business object: header + 1..3 items
				tx := db.Txns().Begin()
				hid := nextHeader
				nextHeader++
				db.MustTable("Header").Insert(tx, []column.Value{column.IntV(hid), column.IntV(2010 + rng.Int63n(5))})
				headerIDs = append(headerIDs, hid)
				for k := 0; k < 1+rng.Intn(3); k++ {
					iid := nextItem
					nextItem++
					db.MustTable("Item").Insert(tx, []column.Value{
						column.IntV(iid), column.IntV(hid),
						column.IntV(rng.Int63n(3)), column.FloatV(float64(rng.Intn(100))),
					})
					itemIDs = append(itemIDs, iid)
				}
				tx.Commit()
			case op < 6 && len(itemIDs) > 0: // delete an item
				tx := db.Txns().Begin()
				i := rng.Intn(len(itemIDs))
				if _, ok := db.MustTable("Item").LookupPK(itemIDs[i]); ok {
					db.MustTable("Item").Delete(tx, itemIDs[i])
				}
				tx.Commit()
			case op < 7 && len(itemIDs) > 0: // reprice an item
				tx := db.Txns().Begin()
				i := rng.Intn(len(itemIDs))
				if _, ok := db.MustTable("Item").LookupPK(itemIDs[i]); ok {
					db.MustTable("Item").Update(tx, itemIDs[i], map[string]column.Value{"Price": column.FloatV(float64(rng.Intn(100)))})
				}
				tx.Commit()
			case op < 8: // merge one of the tables
				name := []string{"Header", "Item"}[rng.Intn(2)]
				if _, err := db.MergeOnline(name, 0, rng.Intn(2) == 0); err != nil {
					return false
				}
			}
		}
		ex := &Executor{DB: db}
		res, _, err := ex.ExecuteAll(q, db.Txns().ReadSnapshot())
		if err != nil {
			return false
		}
		want := referenceJoin(db)
		got := map[int64]float64{}
		for _, r := range res.Rows() {
			got[r.Keys[0].I] = r.Aggs[0].F
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			d := got[k] - v
			if d > 1e-6 || d < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
