package md

import (
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/query"
	"aggcache/internal/table"
)

func buildDB(t testing.TB) (*table.DB, *Registry) {
	t.Helper()
	db := table.Open()
	if _, err := db.Create(table.Schema{
		Name: "Header",
		Cols: []table.ColumnDef{
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "FiscalYear", Kind: column.Int64},
			{Name: "TidHeader", Kind: column.Int64},
		},
		PK: "HeaderID",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create(table.Schema{
		Name: "Item",
		Cols: []table.ColumnDef{
			{Name: "ItemID", Kind: column.Int64},
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "Price", Kind: column.Float64},
			{Name: "TidHeader", Kind: column.Int64},
		},
		PK: "ItemID",
	}); err != nil {
		t.Fatal(err)
	}
	return db, NewRegistry(db)
}

func headerItemMD() MD {
	return MD{
		Parent: "Header", ParentPK: "HeaderID", ParentTID: "TidHeader",
		Child: "Item", ChildFK: "HeaderID", ChildTID: "TidHeader",
	}
}

// insertObject inserts a header and n items in one transaction with MD
// enforcement, mirroring the persistence of one business object.
func insertObject(t testing.TB, db *table.DB, reg *Registry, hid int64, nItems int, nextItem *int64) {
	t.Helper()
	tx := db.Txns().Begin()
	hvals := []column.Value{column.IntV(hid), column.IntV(2013), column.IntV(int64(tx.ID()))}
	if _, err := db.MustTable("Header").Insert(tx, hvals); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < nItems; k++ {
		ivals := []column.Value{column.IntV(*nextItem), column.IntV(hid), column.FloatV(10), column.IntV(0)}
		*nextItem++
		if err := reg.FillChildTIDs("Item", ivals); err != nil {
			t.Fatal(err)
		}
		if _, err := db.MustTable("Item").Insert(tx, ivals); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
}

func TestAddValidation(t *testing.T) {
	db, reg := buildDB(t)
	good := headerItemMD()
	if err := reg.Add(good); err != nil {
		t.Fatal(err)
	}
	bad := []MD{
		{Parent: "Nope", ParentPK: "X", ParentTID: "T", Child: "Item", ChildFK: "HeaderID", ChildTID: "TidHeader"},
		func() MD { m := good; m.ParentPK = "Nope"; return m }(),
		func() MD { m := good; m.ChildTID = "Nope"; return m }(),
		func() MD { m := good; m.ParentPK = "FiscalYear"; return m }(), // not the PK
		func() MD { m := good; m.ChildFK = "Price"; return m }(),       // kind mismatch
		func() MD { m := good; m.ChildTID = "Price"; return m }(),      // tid not int64
	}
	_ = db
	for i, m := range bad {
		if err := reg.Add(m); err == nil {
			t.Errorf("bad MD %d accepted: %s", i, m)
		}
	}
	if len(reg.All()) != 1 {
		t.Fatalf("registry holds %d MDs, want 1", len(reg.All()))
	}
}

func TestForPair(t *testing.T) {
	_, reg := buildDB(t)
	reg.Add(headerItemMD())
	if len(reg.ForPair("Header", "Item")) != 1 || len(reg.ForPair("Item", "Header")) != 1 {
		t.Fatal("ForPair missed the MD")
	}
	if len(reg.ForPair("Header", "Header")) != 0 {
		t.Fatal("ForPair invented an MD")
	}
}

func TestFillChildTIDs(t *testing.T) {
	db, reg := buildDB(t)
	reg.Add(headerItemMD())
	tx := db.Txns().Begin()
	db.MustTable("Header").Insert(tx, []column.Value{column.IntV(100), column.IntV(2013), column.IntV(int64(tx.ID()))})
	tx.Commit()

	ivals := []column.Value{column.IntV(1), column.IntV(100), column.FloatV(5), column.IntV(0)}
	if err := reg.FillChildTIDs("Item", ivals); err != nil {
		t.Fatal(err)
	}
	if ivals[3].I != int64(tx.ID()) {
		t.Fatalf("child tid = %d, want parent tid %d", ivals[3].I, tx.ID())
	}
	// Missing parent is an error (referential check).
	orphan := []column.Value{column.IntV(2), column.IntV(999), column.FloatV(5), column.IntV(0)}
	if err := reg.FillChildTIDs("Item", orphan); err == nil {
		t.Fatal("orphan insert accepted")
	}
}

func ref(tbl string, main bool) query.StoreRef {
	return query.StoreRef{Table: tbl, Part: 0, Main: main}
}

func TestPairPrunedFreshDeltas(t *testing.T) {
	db, reg := buildDB(t)
	reg.Add(headerItemMD())
	var nextItem int64 = 1
	insertObject(t, db, reg, 1, 2, &nextItem)
	insertObject(t, db, reg, 2, 2, &nextItem)
	db.MergeTablesOnline(false, "Header", "Item")
	insertObject(t, db, reg, 3, 2, &nextItem)

	m := headerItemMD()
	// Matching tuples are either both in main or both in delta, so both
	// mixed pairs are pruned.
	if !m.PairPruned(db, ref("Header", true), ref("Item", false)) {
		t.Fatal("Hmain x Idelta not pruned after synchronized merge")
	}
	if !m.PairPruned(db, ref("Header", false), ref("Item", true)) {
		t.Fatal("Hdelta x Imain not pruned after synchronized merge")
	}
	// Aligned pairs overlap and must not be pruned.
	if m.PairPruned(db, ref("Header", true), ref("Item", true)) {
		t.Fatal("main-main pruned")
	}
	if m.PairPruned(db, ref("Header", false), ref("Item", false)) {
		t.Fatal("delta-delta pruned")
	}
}

func TestPairPrunedFig5Scenario(t *testing.T) {
	// Reproduce the paper's Fig. 5: table Item merged before Header, so
	// Hdelta x Imain overlaps (not prunable) while Hmain x Idelta prunes.
	db, reg := buildDB(t)
	reg.Add(headerItemMD())
	var nextItem int64 = 1
	insertObject(t, db, reg, 1, 1, &nextItem)
	insertObject(t, db, reg, 2, 1, &nextItem)
	db.MergeTablesOnline(false, "Header", "Item")
	// Header 3 inserted, then only Item merged: its item lands in Imain
	// while header 3 stays in Hdelta.
	insertObject(t, db, reg, 3, 1, &nextItem)
	db.MergeTablesOnline(false, "Item")
	insertObject(t, db, reg, 4, 1, &nextItem)

	m := headerItemMD()
	if !m.PairPruned(db, ref("Header", true), ref("Item", false)) {
		t.Fatal("Hmain x Idelta must prune (8 > 4 in Fig. 5)")
	}
	if m.PairPruned(db, ref("Header", false), ref("Item", true)) {
		t.Fatal("Hdelta x Imain must NOT prune (5 < 5 is false in Fig. 5)")
	}
}

func TestPairPrunedEmptyStore(t *testing.T) {
	db, reg := buildDB(t)
	reg.Add(headerItemMD())
	m := headerItemMD()
	// Everything empty: all pairs prune.
	if !m.PairPruned(db, ref("Header", true), ref("Item", false)) {
		t.Fatal("empty stores must prune")
	}
}

func joinQuery() *query.Query {
	return &query.Query{
		Tables: []string{"Header", "Item"},
		Joins: []query.JoinEdge{
			{Left: query.ColRef{Table: "Header", Col: "HeaderID"}, Right: query.ColRef{Table: "Item", Col: "HeaderID"}},
		},
		GroupBy: []query.ColRef{{Table: "Header", Col: "FiscalYear"}},
		Aggs:    []query.AggSpec{{Func: query.Sum, Col: query.ColRef{Table: "Item", Col: "Price"}}},
	}
}

func TestComboPruned(t *testing.T) {
	db, reg := buildDB(t)
	reg.Add(headerItemMD())
	var nextItem int64 = 1
	insertObject(t, db, reg, 1, 1, &nextItem)
	db.MergeTablesOnline(false, "Header", "Item")
	insertObject(t, db, reg, 2, 1, &nextItem)

	q := joinQuery()
	cases := []struct {
		combo  query.Combo
		pruned bool
	}{
		{query.Combo{ref("Header", true), ref("Item", true)}, false},
		{query.Combo{ref("Header", false), ref("Item", false)}, false},
		{query.Combo{ref("Header", true), ref("Item", false)}, true},
		{query.Combo{ref("Header", false), ref("Item", true)}, true},
	}
	for _, c := range cases {
		if got := reg.ComboPruned(q, c.combo); got != c.pruned {
			t.Errorf("ComboPruned(%s) = %v, want %v", c.combo, got, c.pruned)
		}
	}
}

func TestComboPrunedIgnoresForeignMDs(t *testing.T) {
	db, reg := buildDB(t)
	reg.Add(headerItemMD())
	// A query that references only Header: the Header-Item MD must not
	// fire.
	q := &query.Query{
		Tables:  []string{"Header"},
		GroupBy: []query.ColRef{{Table: "Header", Col: "FiscalYear"}},
		Aggs:    []query.AggSpec{{Func: query.Count}},
	}
	if reg.ComboPruned(q, query.Combo{ref("Header", true)}) {
		t.Fatal("MD over absent table pruned a combo")
	}
	_ = db
}

func TestPushdownFilters(t *testing.T) {
	db, reg := buildDB(t)
	reg.Add(headerItemMD())
	var nextItem int64 = 1
	insertObject(t, db, reg, 1, 1, &nextItem) // tids 1
	insertObject(t, db, reg, 2, 1, &nextItem) // tids 2
	db.MergeTablesOnline(false, "Item")       // Imain has tids {1,2}; Hdelta keeps headers
	q := joinQuery()

	// Mixed pair Hdelta x Imain: both sides get a tid window.
	filters, ok := reg.PushdownFilters(q, query.Combo{ref("Header", false), ref("Item", true)})
	if !ok {
		t.Fatal("no pushdown derived for mixed pair")
	}
	if filters["Item"] == nil || filters["Header"] == nil {
		t.Fatalf("filters = %v, want both sides", filters)
	}
	// The derived window must reflect the other side's dictionary range.
	want := "(TidHeader >= 1) and (TidHeader <= 2)"
	if got := filters["Item"].String(); got != want {
		t.Fatalf("Item filter = %q, want %q", got, want)
	}

	// Aligned pair: no pushdown.
	if _, ok := reg.PushdownFilters(q, query.Combo{ref("Header", true), ref("Item", true)}); ok {
		t.Fatal("pushdown derived for aligned pair")
	}
}

func TestPushdownFiltersEmptyOtherSide(t *testing.T) {
	db, reg := buildDB(t)
	reg.Add(headerItemMD())
	var nextItem int64 = 1
	insertObject(t, db, reg, 1, 1, &nextItem)
	// Imain empty: only the Item-side window (from Hdelta) is derived.
	filters, ok := reg.PushdownFilters(joinQuery(), query.Combo{ref("Header", false), ref("Item", true)})
	if !ok || filters["Item"] == nil {
		t.Fatalf("filters = %v, want Item window", filters)
	}
	if filters["Header"] != nil {
		t.Fatal("window derived from empty store")
	}
	_ = db
}
