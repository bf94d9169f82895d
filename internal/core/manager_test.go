package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/md"
	"aggcache/internal/query"
	"aggcache/internal/table"
)

// env bundles a database with the ERP-style schema of the paper's running
// example: Header, Item (with the MD tid columns), and a dimension table.
type env struct {
	db       *table.DB
	reg      *md.Registry
	mgr      *Manager
	nextHdr  int64
	nextItem int64
}

func newEnv(t testing.TB, cfg Config) *env {
	t.Helper()
	db := table.Open()
	mustCreate := func(s table.Schema) {
		if _, err := db.Create(s); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate(table.Schema{
		Name: "Header",
		Cols: []table.ColumnDef{
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "FiscalYear", Kind: column.Int64},
			{Name: "TidHeader", Kind: column.Int64},
		},
		PK: "HeaderID",
	})
	mustCreate(table.Schema{
		Name: "Item",
		Cols: []table.ColumnDef{
			{Name: "ItemID", Kind: column.Int64},
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "CategoryID", Kind: column.Int64},
			{Name: "Price", Kind: column.Float64},
			{Name: "TidHeader", Kind: column.Int64},
		},
		PK: "ItemID",
	})
	mustCreate(table.Schema{
		Name: "ProductCategory",
		Cols: []table.ColumnDef{
			{Name: "CategoryID", Kind: column.Int64},
			{Name: "Name", Kind: column.String},
		},
		PK: "CategoryID",
	})
	reg := md.NewRegistry(db)
	if err := reg.Add(md.MD{
		Parent: "Header", ParentPK: "HeaderID", ParentTID: "TidHeader",
		Child: "Item", ChildFK: "HeaderID", ChildTID: "TidHeader",
	}); err != nil {
		t.Fatal(err)
	}
	e := &env{db: db, reg: reg, mgr: NewManager(db, reg, cfg), nextHdr: 1, nextItem: 1}
	// Static dimension rows, merged into main like any settled master data.
	tx := db.Txns().Begin()
	for i, name := range []string{"Food", "Tools", "Toys"} {
		db.MustTable("ProductCategory").Insert(tx, []column.Value{column.IntV(int64(i)), column.StrV(name)})
	}
	tx.Commit()
	if err := db.MergeTablesOnline(false, "ProductCategory"); err != nil {
		t.Fatal(err)
	}
	return e
}

// insertObject persists one business object: a header and its items in one
// transaction, with MD enforcement.
func (e *env) insertObject(t testing.TB, year int64, prices ...float64) int64 {
	t.Helper()
	return e.insertObjectTid(t, 0, year, prices...)
}

// insertObjectTid is insertObject with the object's header tid given, 0 for
// the transaction's own ID; on a hot/cold env a tid below 10 writes to the
// cold partitions.
func (e *env) insertObjectTid(t testing.TB, tid, year int64, prices ...float64) int64 {
	t.Helper()
	tx := e.db.Txns().Begin()
	if tid == 0 {
		tid = int64(tx.ID())
	}
	hid := e.nextHdr
	e.nextHdr++
	if _, err := e.db.MustTable("Header").Insert(tx, []column.Value{
		column.IntV(hid), column.IntV(year), column.IntV(tid),
	}); err != nil {
		t.Fatal(err)
	}
	for i, p := range prices {
		vals := []column.Value{
			column.IntV(e.nextItem), column.IntV(hid),
			column.IntV(int64(i % 3)), column.FloatV(p), column.IntV(0),
		}
		e.nextItem++
		if err := e.reg.FillChildTIDs("Item", vals); err != nil {
			t.Fatal(err)
		}
		if _, err := e.db.MustTable("Item").Insert(tx, vals); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	return hid
}

// newEnvHotCold builds the same schema with Header and Item range-
// partitioned on the header tid (cold: tid < 10, hot: tid >= 10), data in
// both temperature classes, and all deltas merged.
func newEnvHotCold(t testing.TB) *env {
	t.Helper()
	db := table.Open()
	mustCreatePart := func(s table.Schema) {
		ranges := []table.RangePartition{
			{Name: "cold", Lo: 0, Hi: 10},
			{Name: "hot", Lo: 10, Hi: 1 << 40},
		}
		if _, err := db.CreatePartitioned(s, "TidHeader", ranges); err != nil {
			t.Fatal(err)
		}
	}
	mustCreatePart(table.Schema{
		Name: "Header",
		Cols: []table.ColumnDef{
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "FiscalYear", Kind: column.Int64},
			{Name: "TidHeader", Kind: column.Int64},
		},
		PK: "HeaderID",
	})
	mustCreatePart(table.Schema{
		Name: "Item",
		Cols: []table.ColumnDef{
			{Name: "ItemID", Kind: column.Int64},
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "CategoryID", Kind: column.Int64},
			{Name: "Price", Kind: column.Float64},
			{Name: "TidHeader", Kind: column.Int64},
		},
		PK: "ItemID",
	})
	if _, err := db.Create(table.Schema{
		Name: "ProductCategory",
		Cols: []table.ColumnDef{
			{Name: "CategoryID", Kind: column.Int64},
			{Name: "Name", Kind: column.String},
		},
		PK: "CategoryID",
	}); err != nil {
		t.Fatal(err)
	}
	reg := md.NewRegistry(db)
	if err := reg.Add(md.MD{
		Parent: "Header", ParentPK: "HeaderID", ParentTID: "TidHeader",
		Child: "Item", ChildFK: "HeaderID", ChildTID: "TidHeader",
	}); err != nil {
		t.Fatal(err)
	}
	e := &env{db: db, reg: reg, mgr: NewManager(db, reg, Config{}), nextHdr: 1, nextItem: 1}
	tx := db.Txns().Begin()
	for i, name := range []string{"Food", "Tools", "Toys"} {
		db.MustTable("ProductCategory").Insert(tx, []column.Value{column.IntV(int64(i)), column.StrV(name)})
	}
	tx.Commit()
	db.MergeTablesOnline(false, "ProductCategory")

	// Cold-era objects (tids 2..4), then jump the clock past the split.
	e.insertObject(t, 2010, 10, 20)
	e.insertObject(t, 2011, 5)
	db.Txns().AdvanceTo(20)
	// Hot-era objects.
	e.insertObject(t, 2013, 7)
	e.insertObject(t, 2014, 3, 4)
	for part := 0; part < 2; part++ {
		if _, err := db.MergeOnline("Header", part, false); err != nil {
			t.Fatal(err)
		}
		if _, err := db.MergeOnline("Item", part, false); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func headerOnlyQuery() *query.Query {
	return &query.Query{
		Tables:  []string{"Header"},
		GroupBy: []query.ColRef{{Table: "Header", Col: "FiscalYear"}},
		Aggs:    []query.AggSpec{{Func: query.Count, As: "N"}},
	}
}

func joinQuery() *query.Query {
	return &query.Query{
		Tables: []string{"Header", "Item", "ProductCategory"},
		Joins: []query.JoinEdge{
			{Left: query.ColRef{Table: "Header", Col: "HeaderID"}, Right: query.ColRef{Table: "Item", Col: "HeaderID"}},
			{Left: query.ColRef{Table: "Item", Col: "CategoryID"}, Right: query.ColRef{Table: "ProductCategory", Col: "CategoryID"}},
		},
		GroupBy: []query.ColRef{{Table: "ProductCategory", Col: "Name"}},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: "Item", Col: "Price"}, As: "Profit"},
			{Func: query.Count, As: "N"},
		},
	}
}

// assertMatchesUncached checks that a strategy's result equals plain
// evaluation of all subjoins.
func assertMatchesUncached(t testing.TB, e *env, q *query.Query, strat Strategy) ExecInfo {
	t.Helper()
	want, _, err := e.mgr.Execute(q, Uncached)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := e.mgr.Execute(q, strat)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("strategy %v diverges from uncached:\n got %+v\nwant %+v", strat, got.Rows(), want.Rows())
	}
	return info
}

func TestCacheMissThenHit(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	e.db.MergeTablesOnline(false, "Header", "Item")

	q := joinQuery()
	_, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheHit || !info.Admitted {
		t.Fatalf("first execution: %+v, want miss+admitted", info)
	}
	if e.mgr.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", e.mgr.Len())
	}
	_, info, err = e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatalf("second execution: %+v, want hit", info)
	}
	entry, ok := e.mgr.Entry(q)
	if !ok || entry.Metrics.Hits != 1 {
		t.Fatalf("entry metrics: %+v", entry)
	}
}

func TestDeltaCompensationCorrect(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	e.insertObject(t, 2012, 5)
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := joinQuery()
	// Cache on merged state, then insert into deltas.
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	e.insertObject(t, 2013, 7, 8, 9)
	for _, s := range Strategies() {
		assertMatchesUncached(t, e, q, s)
	}
}

func TestMainCompensationSingleTable(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 1)
	e.insertObject(t, 2013, 1)
	e.insertObject(t, 2012, 1)
	e.db.MergeTablesOnline(false, "Header", "Item")

	q := headerOnlyQuery()
	res, _, err := e.mgr.Execute(q, CachedNoPruning)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Rows()); n != 2 {
		t.Fatalf("groups = %d, want 2", n)
	}
	// Delete a 2013 header that lives in main.
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Header").Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	res, info, err := e.mgr.Execute(q, CachedNoPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit || info.MainCompensated != 1 {
		t.Fatalf("info = %+v, want hit with 1 compensated row", info)
	}
	for _, r := range res.Rows() {
		if r.Keys[0].I == 2013 && r.Aggs[0].I != 1 {
			t.Fatalf("2013 count = %v, want 1 after compensation", r.Aggs[0])
		}
	}
	entry, _ := e.mgr.Entry(q)
	if entry.Metrics.DirtyCounter != 1 {
		t.Fatalf("dirty counter = %d, want 1", entry.Metrics.DirtyCounter)
	}
	assertMatchesUncached(t, e, q, CachedNoPruning)
}

func TestMainInvalidationOnJoinCompensates(t *testing.T) {
	// With negative-delta join compensation (the default), an invalidation
	// in a main store is folded into the join entry without a rebuild.
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	// Reprice an item that lives in main: invalidation in Item main.
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Item").Update(tx, 1, map[string]column.Value{"Price": column.FloatV(99)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	got, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rebuilt || !info.CacheHit || info.MainCompensated != 1 {
		t.Fatalf("info = %+v, want hit with 1 compensated row, no rebuild", info)
	}
	want, _, _ := e.mgr.Execute(q, Uncached)
	if !want.Equal(got) {
		t.Fatalf("compensated result wrong:\n got %+v\nwant %+v", got.Rows(), want.Rows())
	}
	entry, _ := e.mgr.Entry(q)
	if entry.Metrics.Rebuilds != 0 || entry.Metrics.DirtyCounter != 1 {
		t.Fatalf("metrics = %+v, want 0 rebuilds, dirty=1", entry.Metrics)
	}
}

func TestMainInvalidationOnJoinRebuildsWhenDisabled(t *testing.T) {
	e := newEnv(t, Config{DisableJoinCompensation: true})
	e.insertObject(t, 2013, 10, 20)
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Item").Update(tx, 1, map[string]column.Value{"Price": column.FloatV(99)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	got, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rebuilt {
		t.Fatalf("info = %+v, want rebuild with compensation disabled", info)
	}
	want, _, _ := e.mgr.Execute(q, Uncached)
	if !want.Equal(got) {
		t.Fatalf("rebuilt result wrong:\n got %+v\nwant %+v", got.Rows(), want.Rows())
	}
	entry, _ := e.mgr.Entry(q)
	if entry.Metrics.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", entry.Metrics.Rebuilds)
	}

	// The switch covers joins only: a single-table entry is still
	// compensated in place, never marked stale.
	hq := headerOnlyQuery()
	if _, _, err := e.mgr.Execute(hq, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	tx = e.db.Txns().Begin()
	if err := e.db.MustTable("Header").Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	_, info, err = e.mgr.Execute(hq, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rebuilt || !info.CacheHit || info.MainCompensated != 1 {
		t.Fatalf("single-table info = %+v, want hit with 1 compensated row, no rebuild", info)
	}
	hentry, _ := e.mgr.Entry(hq)
	if hentry.Stale || hentry.Metrics.Rebuilds != 0 {
		t.Fatalf("single-table entry stale=%v rebuilds=%d, want compensated in place", hentry.Stale, hentry.Metrics.Rebuilds)
	}
	assertMatchesUncached(t, e, hq, CachedFullPruning)
}

func TestJoinCompensationMultiTableDiffs(t *testing.T) {
	// Invalidations in BOTH joined tables at once exercise the |S| = 2
	// inclusion-exclusion term.
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20) // header 1, items 1-2
	e.insertObject(t, 2013, 5)      // header 2, item 3
	e.insertObject(t, 2014, 7)      // header 3, item 4
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	tx := e.db.Txns().Begin()
	// Delete header 1 (both its items lose their join partner) and item 3
	// of header 2 in the same transaction.
	if err := e.db.MustTable("Header").Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.db.MustTable("Item").Delete(tx, 3); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	got, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rebuilt || info.MainCompensated != 2 {
		t.Fatalf("info = %+v, want 2 compensated rows without rebuild", info)
	}
	want, _, _ := e.mgr.Execute(q, Uncached)
	if !want.Equal(got) {
		t.Fatalf("multi-diff compensation wrong:\n got %+v\nwant %+v", got.Rows(), want.Rows())
	}
}

func TestMergeMaintainsEntry(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10)
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	// New business objects land in the deltas, then merge both tables.
	e.insertObject(t, 2013, 5, 5)
	e.insertObject(t, 2014, 3)
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	entry, ok := e.mgr.Entry(q)
	if !ok || entry.Stale {
		t.Fatalf("entry stale after merge: %+v", entry)
	}
	if entry.Metrics.Maintenances == 0 {
		t.Fatal("merge did not maintain the entry")
	}
	// The cached value alone (no delta left) must equal the full result.
	want, _, _ := e.mgr.Execute(q, Uncached)
	if !want.Equal(entry.Value) {
		t.Fatalf("maintained value wrong:\n got %+v\nwant %+v", entry.Value.Rows(), want.Rows())
	}
	assertMatchesUncached(t, e, q, CachedFullPruning)
}

func TestStaggeredMergesStayCorrect(t *testing.T) {
	// Item merges before Header (the Fig. 5 overlap scenario): the entry
	// must still converge to the correct value once both merged.
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10)
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	e.insertObject(t, 2013, 4)
	e.db.MergeTablesOnline(false, "Item") // Item first: Hdelta x Imain overlap
	assertMatchesUncached(t, e, q, CachedFullPruning)
	e.insertObject(t, 2014, 6)
	e.db.MergeTablesOnline(false, "Header")
	assertMatchesUncached(t, e, q, CachedFullPruning)
	e.db.MergeTablesOnline(false, "Item")
	assertMatchesUncached(t, e, q, CachedFullPruning)

	entry, _ := e.mgr.Entry(q)
	if entry.Stale {
		t.Fatal("entry stale without any invalidation")
	}
	want, _, _ := e.mgr.Execute(q, Uncached)
	if !want.Equal(entry.Value) {
		t.Fatalf("staggered maintenance wrong:\n got %+v\nwant %+v", entry.Value.Rows(), want.Rows())
	}
}

func TestFullPruningPrunesMixedCombos(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10, 20)
	e.db.MergeTablesOnline(false, "Header", "Item")
	e.insertObject(t, 2013, 5) // fresh delta on both tables
	q := joinQuery()

	_, infoNone, err := e.mgr.Execute(q, CachedNoPruning)
	if err != nil {
		t.Fatal(err)
	}
	e.mgr.Clear()
	_, infoFull, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	// 3 tables: 7 delta-compensation subjoins. Full pruning removes the
	// H/I mixed pairs via the MD and everything touching the empty
	// ProductCategory delta.
	if infoNone.Stats.PrunedMD != 0 || infoNone.Stats.PrunedEmpty != 0 {
		t.Fatalf("no-pruning pruned: %+v", infoNone.Stats)
	}
	if infoFull.Stats.PrunedMD == 0 {
		t.Fatalf("full pruning pruned no MD combos: %+v", infoFull.Stats)
	}
	if infoFull.Stats.PrunedEmpty == 0 {
		t.Fatalf("full pruning skipped no empty stores: %+v", infoFull.Stats)
	}
	exec := infoFull.Stats.Executed
	if exec >= infoNone.Stats.Executed {
		t.Fatalf("full pruning executed %d subjoins, no-pruning %d", exec, infoNone.Stats.Executed)
	}
}

func TestPushdownApplied(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10)
	e.db.MergeTablesOnline(false, "Header", "Item")
	// Create the Fig. 5 overlap: header in delta, its item merged to main.
	e.insertObject(t, 2013, 4)
	e.db.MergeTablesOnline(false, "Item")
	q := joinQuery()
	_, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Pushdowns == 0 {
		t.Fatalf("no pushdown on unprunable mixed combo: %+v", info.Stats)
	}
	assertMatchesUncached(t, e, q, CachedFullPruning)
}

func TestNonSelfMaintainableNotAdmitted(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10)
	q := headerOnlyQuery()
	q.Aggs = append(q.Aggs, query.AggSpec{Func: query.Max, Col: query.ColRef{Table: "Header", Col: "FiscalYear"}})
	res, info, err := e.mgr.Execute(q, CachedNoPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.Admitted || e.mgr.Len() != 0 {
		t.Fatalf("MAX query admitted: %+v", info)
	}
	// The result itself must still be correct.
	want, _, _ := e.mgr.Execute(q, Uncached)
	if !want.Equal(res) {
		t.Fatal("non-admitted result wrong")
	}
}

func TestCapacityEviction(t *testing.T) {
	e := newEnv(t, Config{CapacityBytes: 1}) // absurdly small: evict everything
	e.insertObject(t, 2013, 10)
	e.db.MergeTablesOnline(false, "Header") // entry must have a non-empty value
	q := headerOnlyQuery()
	_, info, err := e.mgr.Execute(q, CachedNoPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.Admitted || e.mgr.Len() != 0 || e.mgr.Evictions == 0 {
		t.Fatalf("eviction did not fire: admitted=%v len=%d evictions=%d", info.Admitted, e.mgr.Len(), e.mgr.Evictions)
	}
	if e.mgr.SizeBytes() != 0 {
		t.Fatalf("SizeBytes = %d after evicting all", e.mgr.SizeBytes())
	}
}

func TestMinProfitBlocksAdmission(t *testing.T) {
	e := newEnv(t, Config{MinProfit: 1e18})
	e.insertObject(t, 2013, 10)
	q := headerOnlyQuery()
	_, info, err := e.mgr.Execute(q, CachedNoPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.Admitted || e.mgr.Len() != 0 {
		t.Fatal("entry admitted below profit threshold")
	}
}

func TestSnapshotBypass(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10)
	old := e.db.Txns().ReadSnapshot()
	e.insertObject(t, 2014, 5)
	q := headerOnlyQuery()
	if _, _, err := e.mgr.Execute(q, CachedNoPruning); err != nil {
		t.Fatal(err)
	}
	// A snapshot older than the entry must bypass the cache and still see
	// only its own rows.
	res, info, err := e.mgr.ExecuteAt(q, old, CachedNoPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Bypassed {
		t.Fatalf("info = %+v, want bypass", info)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0].Keys[0].I != 2013 {
		t.Fatalf("bypassed result = %+v", rows)
	}
}

func TestExecuteValidates(t *testing.T) {
	e := newEnv(t, Config{})
	q := headerOnlyQuery()
	q.Tables = []string{"Nope"}
	if _, _, err := e.mgr.Execute(q, Uncached); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestClear(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 1)
	e.mgr.Execute(headerOnlyQuery(), CachedNoPruning)
	if e.mgr.Len() != 1 {
		t.Fatal("entry missing")
	}
	e.mgr.Clear()
	if e.mgr.Len() != 0 || e.mgr.SizeBytes() != 0 {
		t.Fatal("Clear left state behind")
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		Uncached:          "uncached",
		CachedNoPruning:   "cached-no-pruning",
		CachedEmptyDelta:  "cached-empty-delta-pruning",
		CachedFullPruning: "cached-full-pruning",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if len(Strategies()) != 4 {
		t.Fatal("Strategies() incomplete")
	}
}

// Property: under random interleavings of business-object inserts, item
// deletes, repricings, staggered merges, and queries, every strategy
// returns the same result as uncached evaluation.
func TestQuickStrategiesAgree(t *testing.T) {
	q := joinQuery()
	single := headerOnlyQuery()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, Config{})
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(12); {
			case op < 5:
				prices := make([]float64, 1+rng.Intn(3))
				for i := range prices {
					prices[i] = float64(rng.Intn(50))
				}
				e.insertObject(t, 2010+int64(rng.Intn(5)), prices...)
			case op < 7 && e.nextItem > 1: // delete random item if live
				tx := e.db.Txns().Begin()
				id := 1 + rng.Int63n(e.nextItem-1)
				if _, ok := e.db.MustTable("Item").LookupPK(id); ok {
					e.db.MustTable("Item").Delete(tx, id)
				}
				tx.Commit()
			case op < 8 && e.nextItem > 1: // reprice random item if live
				tx := e.db.Txns().Begin()
				id := 1 + rng.Int63n(e.nextItem-1)
				if _, ok := e.db.MustTable("Item").LookupPK(id); ok {
					e.db.MustTable("Item").Update(tx, id, map[string]column.Value{"Price": column.FloatV(float64(rng.Intn(50)))})
				}
				tx.Commit()
			case op < 10: // merge a random subset, staggered
				names := []string{"Header", "Item"}
				e.db.MergeTablesOnline(rng.Intn(2) == 0, names[rng.Intn(2)])
			default: // query with a random strategy to exercise caching
				s := Strategies()[rng.Intn(4)]
				if _, _, err := e.mgr.Execute(q, s); err != nil {
					return false
				}
			}
			// Every few steps, verify all strategies agree on both shapes.
			if step%13 == 0 {
				want, _, err := e.mgr.Execute(q, Uncached)
				if err != nil {
					return false
				}
				wantS, _, err := e.mgr.Execute(single, Uncached)
				if err != nil {
					return false
				}
				for _, s := range []Strategy{CachedNoPruning, CachedEmptyDelta, CachedFullPruning} {
					got, _, err := e.mgr.Execute(q, s)
					if err != nil || !want.Equal(got) {
						return false
					}
					gotS, _, err := e.mgr.Execute(single, s)
					if err != nil || !wantS.Equal(gotS) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestUncachedFilterQuery(t *testing.T) {
	// Filters participate in the fingerprint: two filtered variants must
	// coexist in the cache.
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10)
	e.insertObject(t, 2014, 20)
	q13 := joinQuery()
	q13.Filters = map[string]expr.Pred{
		"Header": expr.Cmp{Col: "FiscalYear", Op: expr.Eq, Val: column.IntV(2013)},
	}
	q14 := joinQuery()
	q14.Filters = map[string]expr.Pred{
		"Header": expr.Cmp{Col: "FiscalYear", Op: expr.Eq, Val: column.IntV(2014)},
	}
	r13, _, err := e.mgr.Execute(q13, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	r14, _, err := e.mgr.Execute(q14, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if e.mgr.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", e.mgr.Len())
	}
	if r13.Rows()[0].Aggs[0].F != 10 || r14.Rows()[0].Aggs[0].F != 20 {
		t.Fatalf("filtered results wrong: %v / %v", r13.Rows(), r14.Rows())
	}
}
