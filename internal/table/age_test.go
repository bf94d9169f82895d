package table

import (
	"bytes"
	"strings"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/obs"
)

func agedTable(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := Open()
	tbl, err := db.CreatePartitioned(headerSchema(), "FiscalYear", []RangePartition{
		{Name: "cold", Lo: 0, Hi: 2012},
		{Name: "hot", Lo: 2012, Hi: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Txns().Begin()
	for i, year := range []int64{2010, 2011, 2012, 2013, 2014} {
		if _, err := tbl.Insert(tx, []column.Value{column.IntV(int64(i + 1)), column.IntV(year), column.StrV("A")}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if _, err := db.MergeOnline("Header", 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := db.MergeOnline("Header", 1, false); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestAgeMovesRows(t *testing.T) {
	db, tbl := agedTable(t)
	cold, hot := tbl.Partition(0), tbl.Partition(1)
	if cold.Main.Rows() != 2 || hot.Main.Rows() != 3 {
		t.Fatalf("pre-aging rows = %d/%d", cold.Main.Rows(), hot.Main.Rows())
	}
	// Move the boundary: 2012 and 2013 become cold. An aging is not a delta
	// merge: it emits its own events and counts in no merge metric.
	reg := obs.NewRegistry()
	var events bytes.Buffer
	db.SetMetrics(reg)
	db.SetEvents(obs.NewEventLog(&events))
	if err := db.AgeOnline("Header", 2014); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["table.merges"]; n != 0 {
		t.Fatalf("aging counted %d delta merges", n)
	}
	if log := events.String(); strings.Contains(log, "table.merge_online") ||
		!strings.Contains(log, "table.age_online_start") || !strings.Contains(log, "table.age_online_swap") {
		t.Fatalf("aging events:\n%s", log)
	}
	if cold.Main.Rows() != 4 || hot.Main.Rows() != 1 {
		t.Fatalf("post-aging rows = %d/%d, want 4/1", cold.Main.Rows(), hot.Main.Rows())
	}
	if cold.Hi != 2014 || hot.Lo != 2014 {
		t.Fatalf("bounds = %d/%d, want 2014", cold.Hi, hot.Lo)
	}
	// Index still resolves every key to a live row.
	for pk := int64(1); pk <= 5; pk++ {
		ref, ok := tbl.LookupPK(pk)
		if !ok || tbl.Get(ref, 0).I != pk {
			t.Fatalf("pk %d broken after aging: %+v %v", pk, ref, ok)
		}
	}
	// Routing respects the new bounds.
	tx := db.Txns().Begin()
	ref, err := tbl.Insert(tx, []column.Value{column.IntV(9), column.IntV(2013), column.StrV("B")})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if ref.Part != 0 {
		t.Fatalf("2013 row routed to partition %d after aging, want cold", ref.Part)
	}
}

func TestAgeValidation(t *testing.T) {
	db, tbl := agedTable(t)
	if err := db.AgeOnline("Nope", 2014); err == nil {
		t.Fatal("aging a missing table accepted")
	}
	single, _ := db.Create(Schema{Name: "S", Cols: []ColumnDef{{Name: "a", Kind: column.Int64}}})
	_ = single
	if err := db.AgeOnline("S", 1); err == nil {
		t.Fatal("aging a single-partition table accepted")
	}
	if err := db.AgeOnline("Header", 2000); err == nil {
		t.Fatal("moving the boundary backwards accepted")
	}
	// Non-empty delta blocks aging.
	tx := db.Txns().Begin()
	tbl.Insert(tx, []column.Value{column.IntV(7), column.IntV(2015), column.StrV("C")})
	tx.Commit()
	if err := db.AgeOnline("Header", 2014); err == nil {
		t.Fatal("aging with pending delta accepted")
	}
}

func TestAgePreservesInvalidatedRows(t *testing.T) {
	db, tbl := agedTable(t)
	del := db.Txns().Begin()
	if err := tbl.Delete(del, 3); err != nil { // year 2012, in hot main
		t.Fatal(err)
	}
	del.Commit()
	if err := db.AgeOnline("Header", 2014); err != nil {
		t.Fatal(err)
	}
	// The invalidated row travels with its MVCC timestamps and stays
	// invisible.
	if rows := tbl.Partition(0).Main.Rows() + tbl.Partition(1).Main.Rows(); rows != 5 {
		t.Fatalf("mains hold %d rows after aging, want all 5 versions", rows)
	}
	snap := db.Txns().ReadSnapshot()
	live := tbl.Partition(0).Main.LiveRows(snap) + tbl.Partition(1).Main.LiveRows(snap)
	if live != 4 {
		t.Fatalf("live rows = %d after aging, want 4", live)
	}
	if _, ok := tbl.LookupPK(3); ok {
		t.Fatal("deleted key resurrected by aging")
	}
}
