package table

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/obs"
	"aggcache/internal/txn"
)

func headerSchema() Schema {
	return Schema{
		Name: "Header",
		Cols: []ColumnDef{
			{Name: "HeaderID", Kind: column.Int64},
			{Name: "FiscalYear", Kind: column.Int64},
			{Name: "Cat", Kind: column.String},
		},
		PK: "HeaderID",
	}
}

func TestSchemaValidate(t *testing.T) {
	good := headerSchema()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []Schema{
		{},
		{Name: "t"},
		{Name: "t", Cols: []ColumnDef{{Name: "a", Kind: column.Int64}, {Name: "a", Kind: column.Int64}}},
		{Name: "t", Cols: []ColumnDef{{Name: "a", Kind: column.Int64}}, PK: "missing"},
		{Name: "t", Cols: []ColumnDef{{Name: "a", Kind: column.String}}, PK: "a"},
		{Name: "t", Cols: []ColumnDef{{Name: "", Kind: column.Int64}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestInsertAndVisibility(t *testing.T) {
	db := Open()
	tbl, err := db.Create(headerSchema())
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Txns().Begin()
	ref, err := tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2013), column.StrV("A")})
	if err != nil {
		t.Fatal(err)
	}
	if ref.InMain {
		t.Fatal("insert must land in the delta store")
	}
	delta := tbl.Partition(0).Delta
	// Invisible before commit to an outside snapshot.
	if v := delta.Visibility(db.Txns().ReadSnapshot()); v.Get(0) {
		t.Fatal("uncommitted row visible")
	}
	// Visible to the writer.
	if v := delta.Visibility(tx.Snapshot()); !v.Get(0) {
		t.Fatal("own write invisible")
	}
	tx.Commit()
	if v := delta.Visibility(db.Txns().ReadSnapshot()); !v.Get(0) {
		t.Fatal("committed row invisible")
	}
	if got, ok := tbl.LookupPK(1); !ok || got != ref {
		t.Fatalf("LookupPK = %v %v", got, ok)
	}
	if tbl.Get(ref, 2).S != "A" {
		t.Fatal("Get mismatch")
	}
}

func TestInsertValidation(t *testing.T) {
	db := Open()
	tbl, _ := db.Create(headerSchema())
	tx := db.Txns().Begin()
	defer tx.Commit()
	if _, err := tbl.Insert(tx, []column.Value{column.IntV(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := tbl.Insert(tx, []column.Value{column.StrV("x"), column.IntV(1), column.StrV("A")}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := tbl.Insert(tx, []column.Value{column.IntV(7), column.IntV(1), column.StrV("A")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(tx, []column.Value{column.IntV(7), column.IntV(1), column.StrV("B")}); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
}

func TestAbortTombstonesRow(t *testing.T) {
	db := Open()
	tbl, _ := db.Create(headerSchema())
	tx := db.Txns().Begin()
	if _, err := tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2013), column.StrV("A")}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	delta := tbl.Partition(0).Delta
	if delta.CreateTID(0) != txn.Aborted {
		t.Fatal("aborted row not tombstoned")
	}
	if _, ok := tbl.LookupPK(1); ok {
		t.Fatal("aborted key still indexed")
	}
	if v := delta.Visibility(db.Txns().ReadSnapshot()); v.Get(0) {
		t.Fatal("aborted row visible")
	}
}

func TestUpdateInvalidatesOldVersion(t *testing.T) {
	db := Open()
	tbl, _ := db.Create(headerSchema())
	tx := db.Txns().Begin()
	oldRef, _ := tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2013), column.StrV("A")})
	tx.Commit()
	before := db.Txns().ReadSnapshot()

	up := db.Txns().Begin()
	if err := tbl.Update(up, 1, map[string]column.Value{"Cat": column.StrV("B")}); err != nil {
		t.Fatal(err)
	}
	up.Commit()

	delta := tbl.Partition(0).Delta
	if delta.Rows() != 2 {
		t.Fatalf("delta rows = %d, want 2 (old + new version)", delta.Rows())
	}
	now := db.Txns().ReadSnapshot()
	visNow := delta.Visibility(now)
	if visNow.Get(oldRef.Row) {
		t.Fatal("old version still visible after update")
	}
	newRef, ok := tbl.LookupPK(1)
	if !ok || !visNow.Get(newRef.Row) {
		t.Fatal("new version not visible")
	}
	if tbl.Get(newRef, 2).S != "B" || tbl.Get(newRef, 1).I != 2013 {
		t.Fatal("update did not carry values correctly")
	}
	// Time travel: the old snapshot still sees the old version only.
	visBefore := delta.Visibility(before)
	if !visBefore.Get(oldRef.Row) || visBefore.Get(newRef.Row) {
		t.Fatal("snapshot isolation violated by update")
	}
}

func TestUpdateErrors(t *testing.T) {
	db := Open()
	tbl, _ := db.Create(headerSchema())
	tx := db.Txns().Begin()
	defer tx.Commit()
	if err := tbl.Update(tx, 99, nil); err == nil {
		t.Fatal("update of missing key accepted")
	}
	if _, err := tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2013), column.StrV("A")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(tx, 1, map[string]column.Value{"nope": column.IntV(0)}); err == nil {
		t.Fatal("update of unknown column accepted")
	}
	if err := tbl.Update(tx, 1, map[string]column.Value{"Cat": column.IntV(0)}); err == nil {
		t.Fatal("update with wrong kind accepted")
	}
}

func TestDelete(t *testing.T) {
	db := Open()
	tbl, _ := db.Create(headerSchema())
	tx := db.Txns().Begin()
	tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2013), column.StrV("A")})
	tx.Commit()

	del := db.Txns().Begin()
	if err := tbl.Delete(del, 1); err != nil {
		t.Fatal(err)
	}
	del.Commit()
	if _, ok := tbl.LookupPK(1); ok {
		t.Fatal("deleted key still indexed")
	}
	if v := tbl.Partition(0).Delta.Visibility(db.Txns().ReadSnapshot()); v.Get(0) {
		t.Fatal("deleted row visible")
	}

	tx2 := db.Txns().Begin()
	if err := tbl.Delete(tx2, 1); err == nil {
		t.Fatal("double delete accepted")
	}
	tx2.Commit()
}

func TestMergeMovesDeltaToMain(t *testing.T) {
	db := Open()
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	tbl, _ := db.Create(headerSchema())
	tx := db.Txns().Begin()
	for i := int64(1); i <= 5; i++ {
		tbl.Insert(tx, []column.Value{column.IntV(i), column.IntV(2013), column.StrV("A")})
	}
	tx.Commit()
	del := db.Txns().Begin()
	tbl.Delete(del, 3)
	del.Commit()

	stats, err := db.MergeOnline("Header", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FromDelta != 4 || stats.Dropped != 1 {
		t.Fatalf("stats = %+v, want 4 moved, 1 dropped", stats)
	}
	p := tbl.Partition(0)
	if p.Main.Rows() != 4 || p.Delta.Rows() != 0 {
		t.Fatalf("main=%d delta=%d, want 4,0", p.Main.Rows(), p.Delta.Rows())
	}
	if n := reg.Snapshot().Counters["table.merges"]; n != 1 {
		t.Fatalf("table.merges = %d, want 1", n)
	}
	// Index re-anchored to main rows.
	for _, pk := range []int64{1, 2, 4, 5} {
		ref, ok := tbl.LookupPK(pk)
		if !ok || !ref.InMain {
			t.Fatalf("pk %d ref = %v %v, want in-main", pk, ref, ok)
		}
		if tbl.Get(ref, 0).I != pk {
			t.Fatalf("pk %d points at wrong row", pk)
		}
	}
	if _, ok := tbl.LookupPK(3); ok {
		t.Fatal("deleted key resurrected by merge")
	}
	// Main dictionaries are sorted after merge.
	lo, hi, ok := p.Main.Col(0).MinMax()
	if !ok || lo.I != 1 || hi.I != 5 {
		t.Fatalf("main MinMax = %v %v %v", lo, hi, ok)
	}
}

func TestMergeKeepInvalidated(t *testing.T) {
	db := Open()
	tbl, _ := db.Create(headerSchema())
	tx := db.Txns().Begin()
	tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2013), column.StrV("A")})
	tbl.Insert(tx, []column.Value{column.IntV(2), column.IntV(2013), column.StrV("B")})
	tx.Commit()
	del := db.Txns().Begin()
	tbl.Delete(del, 1)
	del.Commit()

	if _, err := db.MergeOnline("Header", 0, true); err != nil {
		t.Fatal(err)
	}
	p := tbl.Partition(0)
	if p.Main.Rows() != 2 {
		t.Fatalf("main rows = %d, want 2 (invalidated kept)", p.Main.Rows())
	}
	if p.Main.LiveRows(db.Txns().ReadSnapshot()) != 1 {
		t.Fatal("invalidated row visible after keep-merge")
	}
}

func TestMergeAcrossMainInvalidation(t *testing.T) {
	// Update a row that already lives in main, then merge again: the old
	// main version must be dropped and the new delta version moved in.
	db := Open()
	tbl, _ := db.Create(headerSchema())
	tx := db.Txns().Begin()
	tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2013), column.StrV("A")})
	tx.Commit()
	db.MergeOnline("Header", 0, false)

	up := db.Txns().Begin()
	if err := tbl.Update(up, 1, map[string]column.Value{"Cat": column.StrV("Z")}); err != nil {
		t.Fatal(err)
	}
	up.Commit()
	p := tbl.Partition(0)
	if p.Main.InvalidTID(0) == 0 {
		t.Fatal("main row not invalidated by update")
	}
	db.MergeOnline("Header", 0, false)
	if p := tbl.Partition(0); p.Main.Rows() != 1 || p.Main.Col(2).Value(0).S != "Z" {
		t.Fatalf("merge after main-invalidation wrong: rows=%d", p.Main.Rows())
	}
	ref, ok := tbl.LookupPK(1)
	if !ok || !ref.InMain || tbl.Get(ref, 2).S != "Z" {
		t.Fatal("index wrong after second merge")
	}
}

func TestPartitionedRouting(t *testing.T) {
	s := headerSchema()
	db := Open()
	tbl, err := db.CreatePartitioned(s, "FiscalYear", []RangePartition{
		{Name: "cold", Lo: 0, Hi: 2010},
		{Name: "hot", Lo: 2010, Hi: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Txns().Begin()
	refCold, _ := tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2005), column.StrV("A")})
	refHot, _ := tbl.Insert(tx, []column.Value{column.IntV(2), column.IntV(2013), column.StrV("B")})
	tx.Commit()
	if refCold.Part != 0 || refHot.Part != 1 {
		t.Fatalf("routing wrong: cold part %d, hot part %d", refCold.Part, refHot.Part)
	}
	tx2 := db.Txns().Begin()
	if _, err := tbl.Insert(tx2, []column.Value{column.IntV(3), column.IntV(-5), column.StrV("C")}); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	tx2.Commit()
}

func TestPartitionedValidation(t *testing.T) {
	s := headerSchema()
	if _, err := NewPartitioned(s, "nope", []RangePartition{{Lo: 0, Hi: 1}}); err == nil {
		t.Fatal("unknown routing column accepted")
	}
	if _, err := NewPartitioned(s, "Cat", []RangePartition{{Lo: 0, Hi: 1}}); err == nil {
		t.Fatal("string routing column accepted")
	}
	if _, err := NewPartitioned(s, "FiscalYear", nil); err == nil {
		t.Fatal("no ranges accepted")
	}
	if _, err := NewPartitioned(s, "FiscalYear", []RangePartition{{Lo: 5, Hi: 5}}); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestBulkLoadMain(t *testing.T) {
	db := Open()
	tbl, _ := db.Create(headerSchema())
	rows := [][]column.Value{
		{column.IntV(10), column.IntV(2012), column.StrV("A")},
		{column.IntV(20), column.IntV(2013), column.StrV("B")},
	}
	tids := []txn.TID{1, 2}
	if err := tbl.BulkLoadMain(0, rows, tids); err != nil {
		t.Fatal(err)
	}
	p := tbl.Partition(0)
	if p.Main.Rows() != 2 || p.Main.CreateTID(1) != 2 {
		t.Fatal("bulk load wrong")
	}
	ref, ok := tbl.LookupPK(20)
	if !ok || !ref.InMain || tbl.Get(ref, 2).S != "B" {
		t.Fatal("bulk load index wrong")
	}
	if err := tbl.BulkLoadMain(0, rows, tids); err == nil {
		t.Fatal("bulk load into non-empty partition accepted")
	}
	if err := tbl.BulkLoadMain(0, rows, tids[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestDBContainer(t *testing.T) {
	db := Open()
	if _, err := db.Create(headerSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create(headerSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if db.Table("Header") == nil || db.Table("nope") != nil {
		t.Fatal("Table lookup broken")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "Header" {
		t.Fatalf("TableNames = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustTable on missing table did not panic")
		}
	}()
	db.MustTable("nope")
}

// protocolHook records the merge-hook calls it receives, per (table, part).
type protocolHook struct {
	calls map[string][]string
}

func (h *protocolHook) record(tbl *Table, part int, call string) {
	key := fmt.Sprintf("%s/%d", tbl.Name(), part)
	h.calls[key] = append(h.calls[key], call)
}

func (h *protocolHook) FoldOnline(db *DB, tbl *Table, part int, snap txn.Snapshot) {
	h.record(tbl, part, "fold")
}
func (h *protocolHook) SwapOnline(db *DB, tbl *Table, part int, snap txn.Snapshot) {
	h.record(tbl, part, "swap")
}
func (h *protocolHook) AbortOnline(db *DB, tbl *Table, part int) {
	h.record(tbl, part, "abort")
}

// TestMergeHookProtocol pins the hook contract of every merge entry point,
// fault-free and with a crash injected at each merge fault point: every
// registered hook sees, per (table, partition), fold→swap when the merge
// commits, fold→abort when it rolls back after the build, and a bare abort
// (or nothing, for a table the group never prepared) when it fails before
// its fold — never a swap without its fold, never a call after the outcome.
func TestMergeHookProtocol(t *testing.T) {
	ops := []struct {
		name string
		keys []string
		run  func(db *DB) error
	}{
		{"MergeOnline", []string{"A/0"}, func(db *DB) error {
			_, err := db.MergeOnline("A", 0, false)
			return err
		}},
		{"MergeTablesOnline", []string{"A/0", "B/0"}, func(db *DB) error {
			return db.MergeTablesOnline(false, "A", "B")
		}},
		{"AgeOnline", []string{"P/0", "P/1"}, func(db *DB) error {
			return db.AgeOnline("P", 2012)
		}},
	}
	faults := []struct {
		name  string
		point FaultPoint
		crash bool
		want  string
	}{
		{"none", 0, false, "fold,swap"},
		{"prepared", FaultMergePrepared, true, "abort"},
		{"build", FaultMergeBuild, true, "abort"},
		{"before-swap", FaultMergeBeforeSwap, true, "fold,abort"},
		{"after-swap", FaultMergeAfterSwap, true, "fold,swap"},
	}
	for _, op := range ops {
		for _, f := range faults {
			t.Run(op.name+"/"+f.name, func(t *testing.T) {
				db := Open()
				for _, name := range []string{"A", "B"} {
					s := headerSchema()
					s.Name = name
					tbl, err := db.Create(s)
					if err != nil {
						t.Fatal(err)
					}
					insertRows(t, db, tbl, 1, 6)
				}
				s := headerSchema()
				s.Name = "P"
				aged, err := db.CreatePartitioned(s, "FiscalYear", []RangePartition{
					{Name: "cold", Lo: 0, Hi: 2011},
					{Name: "hot", Lo: 2011, Hi: 1 << 40},
				})
				if err != nil {
					t.Fatal(err)
				}
				insertRows(t, db, aged, 1, 6)
				for part := 0; part < 2; part++ {
					if _, err := db.MergeOnline("P", part, false); err != nil {
						t.Fatal(err)
					}
				}
				hooks := []*protocolHook{{calls: map[string][]string{}}, {calls: map[string][]string{}}}
				for _, h := range hooks {
					db.RegisterMergeHook(h)
				}
				if f.crash {
					inj := NewFaults(1)
					inj.Set(f.point, FaultSpec{Prob: 1, Crash: true})
					db.SetFaults(inj)
				}
				err = op.run(db)
				if f.crash && !errors.Is(err, ErrInjected) || !f.crash && err != nil {
					t.Fatalf("error = %v, crash injected = %v", err, f.crash)
				}
				for hi, h := range hooks {
					if len(h.calls) > len(op.keys) {
						t.Fatalf("hook %d saw partitions outside the merge: %v", hi, h.calls)
					}
					for _, key := range op.keys {
						got := strings.Join(h.calls[key], ",")
						// A group whose first prepare crashes never touches
						// its later tables.
						if got != f.want && !(f.point == FaultMergePrepared && f.crash && got == "") {
							t.Errorf("hook %d, %s: calls = %q, want %q", hi, key, got, f.want)
						}
					}
				}
			})
		}
	}
}

func TestMemBytesAndDeltaRows(t *testing.T) {
	db := Open()
	tbl, _ := db.Create(headerSchema())
	if tbl.MemBytes() != 0 {
		// Empty structures may still report some overhead; just ensure it
		// grows with data.
	}
	before := tbl.MemBytes()
	tx := db.Txns().Begin()
	for i := int64(0); i < 100; i++ {
		tbl.Insert(tx, []column.Value{column.IntV(i), column.IntV(2013), column.StrV("cat")})
	}
	tx.Commit()
	if tbl.MemBytes() <= before {
		t.Fatal("MemBytes did not grow with inserts")
	}
	if tbl.DeltaRows() != 100 {
		t.Fatalf("DeltaRows = %d, want 100", tbl.DeltaRows())
	}
}

func TestPartitionedMergePerPartition(t *testing.T) {
	db := Open()
	tbl, err := db.CreatePartitioned(headerSchema(), "FiscalYear", []RangePartition{
		{Name: "cold", Lo: 0, Hi: 2010},
		{Name: "hot", Lo: 2010, Hi: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Txns().Begin()
	tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2005), column.StrV("A")})
	tbl.Insert(tx, []column.Value{column.IntV(2), column.IntV(2013), column.StrV("B")})
	tx.Commit()
	// Merge only the hot partition.
	if _, err := db.MergeOnline("Header", 1, false); err != nil {
		t.Fatal(err)
	}
	cold, hot := tbl.Partition(0), tbl.Partition(1)
	if cold.Delta.Rows() != 1 || cold.Main.Rows() != 0 {
		t.Fatal("cold partition touched by hot merge")
	}
	if hot.Delta.Rows() != 0 || hot.Main.Rows() != 1 {
		t.Fatal("hot merge incomplete")
	}
	ref, ok := tbl.LookupPK(2)
	if !ok || ref.Part != 1 || !ref.InMain {
		t.Fatalf("pk 2 ref = %+v", ref)
	}
	if _, err := db.MergeOnline("Header", 5, false); err == nil {
		t.Fatal("merge of unknown partition accepted")
	}
	if err := db.MergeTablesOnline(false, "nope"); err == nil {
		t.Fatal("merge of missing table accepted")
	}
}

func TestUpdateMovesAcrossPartitions(t *testing.T) {
	// Updating the routing column relocates the new version to the
	// matching partition; the old version is invalidated in place.
	db := Open()
	tbl, _ := db.CreatePartitioned(headerSchema(), "FiscalYear", []RangePartition{
		{Name: "cold", Lo: 0, Hi: 2010},
		{Name: "hot", Lo: 2010, Hi: 1 << 40},
	})
	tx := db.Txns().Begin()
	tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2005), column.StrV("A")})
	tx.Commit()

	up := db.Txns().Begin()
	if err := tbl.Update(up, 1, map[string]column.Value{"FiscalYear": column.IntV(2015)}); err != nil {
		t.Fatal(err)
	}
	up.Commit()
	ref, ok := tbl.LookupPK(1)
	if !ok || ref.Part != 1 {
		t.Fatalf("updated row not rerouted: %+v", ref)
	}
	snap := db.Txns().ReadSnapshot()
	if tbl.Partition(0).Delta.LiveRows(snap) != 0 {
		t.Fatal("old version still visible in cold partition")
	}
	if tbl.Partition(1).Delta.LiveRows(snap) != 1 {
		t.Fatal("new version missing from hot partition")
	}
}

func TestStoreRowAndInvalidations(t *testing.T) {
	db := Open()
	tbl, _ := db.Create(headerSchema())
	tx := db.Txns().Begin()
	tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2013), column.StrV("A")})
	tx.Commit()
	st := tbl.Partition(0).Delta
	row := st.Row(0)
	if len(row) != 3 || row[0].I != 1 || row[2].S != "A" {
		t.Fatalf("Row = %v", row)
	}
	if st.Invalidations() != 0 {
		t.Fatal("fresh store reports invalidations")
	}
	del := db.Txns().Begin()
	tbl.Delete(del, 1)
	del.Commit()
	if st.Invalidations() != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations())
	}
	if !st.IsMain() == false {
		// Delta store: IsMain must be false.
		t.Fatal("IsMain wrong for delta")
	}
}

func TestAbortRestoresInvalidation(t *testing.T) {
	db := Open()
	tbl, _ := db.Create(headerSchema())
	tx := db.Txns().Begin()
	tbl.Insert(tx, []column.Value{column.IntV(1), column.IntV(2013), column.StrV("A")})
	tx.Commit()
	del := db.Txns().Begin()
	tbl.Delete(del, 1)
	del.Abort()
	if _, ok := tbl.LookupPK(1); !ok {
		t.Fatal("aborted delete removed the key")
	}
	st := tbl.Partition(0).Delta
	if !st.Visibility(db.Txns().ReadSnapshot()).Get(0) {
		t.Fatal("row invisible after aborted delete")
	}
	// The invalidation counter keeps its tick (a conservative signal).
	if st.Invalidations() != 1 {
		t.Fatalf("Invalidations = %d after abort, want 1", st.Invalidations())
	}
}
