package core

import (
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/query"
)

func mvQuery() *query.Query {
	return &query.Query{
		Tables: []string{"Header"},
		Filters: map[string]expr.Pred{
			"Header": expr.Cmp{Col: "FiscalYear", Op: expr.Ge, Val: column.IntV(2013)},
		},
		GroupBy: []query.ColRef{{Table: "Header", Col: "FiscalYear"}},
		Aggs: []query.AggSpec{
			{Func: query.Count, As: "N"},
			{Func: query.Sum, Col: query.ColRef{Table: "Header", Col: "HeaderID"}, As: "S"},
		},
	}
}

func headerVals(id, year int64) []column.Value {
	return []column.Value{column.IntV(id), column.IntV(year), column.IntV(0)}
}

func TestMaterializedViewValidation(t *testing.T) {
	e := newEnv(t, Config{})
	bad := joinQuery()
	if _, err := NewMaterializedView(e.db, bad, Eager); err == nil {
		t.Fatal("multi-table view accepted")
	}
	nsm := mvQuery()
	nsm.Aggs = []query.AggSpec{{Func: query.Max, Col: query.ColRef{Table: "Header", Col: "FiscalYear"}}}
	if _, err := NewMaterializedView(e.db, nsm, Eager); err == nil {
		t.Fatal("non-self-maintainable view accepted")
	}
	invalid := mvQuery()
	invalid.Tables = []string{"Nope"}
	if _, err := NewMaterializedView(e.db, invalid, Eager); err == nil {
		t.Fatal("invalid view accepted")
	}
}

func TestMaterializedViewInitialState(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 1)
	e.insertObject(t, 2012, 1) // filtered out
	v, err := NewMaterializedView(e.db, mvQuery(), Eager)
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0].Keys[0].I != 2013 || rows[0].Aggs[0].I != 1 {
		t.Fatalf("initial view = %+v", rows)
	}
}

func TestEagerMaintainsImmediately(t *testing.T) {
	e := newEnv(t, Config{})
	v, err := NewMaterializedView(e.db, mvQuery(), Eager)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.OnInsert(headerVals(7, 2013)); err != nil {
		t.Fatal(err)
	}
	if err := v.OnInsert(headerVals(8, 2010)); err != nil { // filtered
		t.Fatal(err)
	}
	if v.PendingRows() != 0 {
		t.Fatal("eager view logged instead of applying")
	}
	if v.Maintained != 1 {
		t.Fatalf("Maintained = %d, want 1 (filtered row skipped)", v.Maintained)
	}
	res, _ := v.Read()
	rows := res.Rows()
	if len(rows) != 1 || rows[0].Aggs[1].F != 7 {
		t.Fatalf("view = %+v", rows)
	}
}

func TestLazyDefersUntilRead(t *testing.T) {
	e := newEnv(t, Config{})
	v, err := NewMaterializedView(e.db, mvQuery(), Lazy)
	if err != nil {
		t.Fatal(err)
	}
	v.OnInsert(headerVals(7, 2013))
	v.OnInsert(headerVals(9, 2014))
	if v.PendingRows() != 2 || v.Maintained != 0 {
		t.Fatalf("lazy view applied eagerly: pending=%d maintained=%d", v.PendingRows(), v.Maintained)
	}
	res, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v.PendingRows() != 0 || v.Maintained != 2 {
		t.Fatal("Read did not drain the log")
	}
	if len(res.Rows()) != 2 {
		t.Fatalf("view = %+v", res.Rows())
	}
}

func TestViewDelete(t *testing.T) {
	e := newEnv(t, Config{})
	v, _ := NewMaterializedView(e.db, mvQuery(), Eager)
	v.OnInsert(headerVals(7, 2013))
	v.OnDelete(headerVals(7, 2013))
	res, _ := v.Read()
	if len(res.Rows()) != 0 {
		t.Fatalf("view after insert+delete = %+v", res.Rows())
	}
}

func TestViewMatchesEngineUnderWorkload(t *testing.T) {
	// Insert through the engine AND notify the view; the view must track
	// the engine's uncached result exactly.
	e := newEnv(t, Config{})
	v, _ := NewMaterializedView(e.db, mvQuery(), Lazy)
	for i := 0; i < 30; i++ {
		year := 2010 + int64(i%6)
		tx := e.db.Txns().Begin()
		vals := []column.Value{column.IntV(e.nextHdr), column.IntV(year), column.IntV(int64(tx.ID()))}
		e.nextHdr++
		e.db.MustTable("Header").Insert(tx, vals)
		tx.Commit()
		v.OnInsert(vals)
	}
	got, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.mgr.Execute(mvQuery(), Uncached)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("view diverged:\n got %+v\nwant %+v", got.Rows(), want.Rows())
	}
	if Eager.String() != "eager-incremental" || Lazy.String() != "lazy-incremental" {
		t.Fatal("mode strings wrong")
	}
}

func TestReadRowsMatchesRead(t *testing.T) {
	e := newEnv(t, Config{})
	v, err := NewMaterializedView(e.db, mvQuery(), Lazy)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		year := 2010 + i%6
		tx := e.db.Txns().Begin()
		vals := headerVals(100+i, year)
		e.db.MustTable("Header").Insert(tx, vals)
		tx.Commit()
		v.OnInsert(vals)
	}
	rows, err := v.ReadRows()
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	assertRowsEqualTable(t, rows, want)
	if v.Mode() != Lazy {
		t.Fatal("Mode accessor wrong")
	}
	if v.Table() == nil || v.Table().Partition(0).Delta.Rows() == 0 {
		t.Fatal("summary table not populated")
	}
}

func TestSummaryTableVersionsAccumulate(t *testing.T) {
	// Each group update invalidates the prior version: the physical
	// summary table grows while the visible extent stays one row per
	// group — the growth that degrades summary-table reads over time.
	e := newEnv(t, Config{})
	v, _ := NewMaterializedView(e.db, mvQuery(), Eager)
	for i := int64(1); i <= 10; i++ {
		v.OnInsert(headerVals(200+i, 2015)) // same group every time
	}
	st := v.Table().Partition(0).Delta
	if st.Rows() < 10 {
		t.Fatalf("physical rows = %d, want >= 10 versions", st.Rows())
	}
	rows, _ := v.ReadRows()
	if len(rows) != 1 || rows[0].Count != 10 {
		t.Fatalf("visible extent = %+v, want one group with count 10", rows)
	}
}

// TestViewStringEqualityFilter maintains single-table views filtered by a
// string = or <> under both modes. Maintenance evaluates the filter against
// one in-flight row, a column with no dictionary, so the bound predicate
// must not assume one.
func TestViewStringEqualityFilter(t *testing.T) {
	for _, mode := range []MaintenanceMode{Eager, Lazy} {
		for _, op := range []expr.Op{expr.Eq, expr.Ne} {
			// "Toys" is in the merged dictionary; "Gadgets" only enters
			// through the inserts below.
			for _, name := range []string{"Toys", "Gadgets"} {
				e := newEnv(t, Config{})
				q := &query.Query{
					Tables:  []string{"ProductCategory"},
					Filters: map[string]expr.Pred{"ProductCategory": expr.Cmp{Col: "Name", Op: op, Val: column.StrV(name)}},
					GroupBy: []query.ColRef{{Table: "ProductCategory", Col: "Name"}},
					Aggs: []query.AggSpec{
						{Func: query.Count, As: "N"},
						{Func: query.Sum, Col: query.ColRef{Table: "ProductCategory", Col: "CategoryID"}, As: "S"},
					},
				}
				v, err := NewMaterializedView(e.db, q, mode)
				if err != nil {
					t.Fatal(err)
				}
				for i, n := range []string{"Toys", "Gadgets", "Food", "Gadgets", "Toys"} {
					vals := []column.Value{column.IntV(int64(10 + i)), column.StrV(n)}
					tx := e.db.Txns().Begin()
					if _, err := e.db.MustTable("ProductCategory").Insert(tx, vals); err != nil {
						t.Fatal(err)
					}
					tx.Commit()
					if err := v.OnInsert(vals); err != nil {
						t.Fatal(err)
					}
				}
				got, err := v.Read()
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := e.mgr.Execute(q, Uncached)
				if err != nil {
					t.Fatal(err)
				}
				if !want.Equal(got) {
					t.Fatalf("%v %v %q: view diverged:\n got %+v\nwant %+v", mode, op, name, got.Rows(), want.Rows())
				}
				if want.Groups() == 0 {
					t.Fatalf("%v %v %q: empty result proves nothing", mode, op, name)
				}
			}
		}
	}
}
