package table

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/txn"
)

func headerRow(pk, year int64, cat string) []column.Value {
	return []column.Value{column.IntV(pk), column.IntV(year), column.StrV(cat)}
}

// requireKey checks that pk answers with the given fiscal year and that the
// key behaves as present: a second insert is rejected, update and delete
// are accepted (and rolled back).
func requireKey(t *testing.T, db *DB, tbl *Table, pk, year int64) {
	t.Helper()
	ref, ok := tbl.LookupPK(pk)
	if !ok {
		t.Fatalf("LookupPK(%d) misses a live key", pk)
	}
	if got := tbl.Get(ref, 1).I; got != year {
		t.Fatalf("LookupPK(%d) answers year %d, want %d", pk, got, year)
	}
	tx := db.Txns().Begin()
	if _, err := tbl.Insert(tx, headerRow(pk, 2000, "dup")); err == nil {
		t.Fatalf("second insert of live key %d accepted", pk)
	}
	if err := tbl.Update(tx, pk, map[string]column.Value{"Cat": column.StrV("Z")}); err != nil {
		t.Fatalf("update of live key %d: %v", pk, err)
	}
	if err := tbl.Delete(tx, pk); err != nil {
		t.Fatalf("delete of live key %d: %v", pk, err)
	}
	tx.Abort()
	if ref2, ok := tbl.LookupPK(pk); !ok || ref2 != ref {
		t.Fatalf("LookupPK(%d) = %v, %v after rolled-back writes, want %v", pk, ref2, ok, ref)
	}
}

// TestAbortedUpdateKeepsKey rolls back an update or delete of a key and
// requires the old version to answer the key again: a key in main, a key in
// the delta whose store must give it back to its previous row, and — while
// an online merge sits between Build and Finish — a key in delta2.
func TestAbortedUpdateKeepsKey(t *testing.T) {
	writes := map[string]func(tx *txn.Txn, tbl *Table, pk int64) error{
		"update": func(tx *txn.Txn, tbl *Table, pk int64) error {
			return tbl.Update(tx, pk, map[string]column.Value{"FiscalYear": column.IntV(1999)})
		},
		"delete": func(tx *txn.Txn, tbl *Table, pk int64) error { return tbl.Delete(tx, pk) },
	}
	for name, write := range writes {
		for _, merging := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/merging=%v", name, merging), func(t *testing.T) {
				db := Open()
				tbl, err := db.Create(headerSchema())
				if err != nil {
					t.Fatal(err)
				}
				insertRows(t, db, tbl, 1, 3) // keys 1..3, merged into main
				if _, err := db.MergeOnline("Header", 0, false); err != nil {
					t.Fatal(err)
				}
				insertRows(t, db, tbl, 4, 2) // keys 4, 5 in the delta
				keys := map[int64]int64{1: 2011, 4: 2014}
				var om *OnlineMerge
				if merging {
					if om, err = db.StartOnlineMerge("Header", 0, false); err != nil {
						t.Fatal(err)
					}
					insertRows(t, db, tbl, 6, 1) // key 6 in delta2
					if err := om.Build(); err != nil {
						t.Fatal(err)
					}
					keys[6] = 2011
				}
				for pk := range keys {
					tx := db.Txns().Begin()
					if err := write(tx, tbl, pk); err != nil {
						t.Fatal(err)
					}
					tx.Abort()
				}
				for pk, year := range keys {
					requireKey(t, db, tbl, pk, year)
				}
				if om != nil {
					if _, err := om.Finish(); err != nil {
						t.Fatal(err)
					}
					for pk, year := range keys {
						requireKey(t, db, tbl, pk, year)
					}
				}
			})
		}
	}
}

// TestAgeAbortKeepsLiveKey aborts an aging whose build saw a key inserted
// into the hot delta2 and moved by an update into the cold one. Both
// versions fold back into the hot delta (by the old boundary); the live one
// must keep answering the key, whichever delta2 folds last.
func TestAgeAbortKeepsLiveKey(t *testing.T) {
	db := Open()
	tbl, err := db.CreatePartitioned(headerSchema(), "FiscalYear", []RangePartition{
		{Name: "cold", Lo: 0, Hi: 2014},
		{Name: "hot", Lo: 2014, Hi: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	hook := &duringBuildHook{fn: func() {
		tx := db.Txns().Begin()
		if _, err := tbl.Insert(tx, headerRow(1, 2017, "A")); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Update(tx, 1, map[string]column.Value{"FiscalYear": column.IntV(2015)}); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}}
	db.RegisterMergeHook(hook)
	f := NewFaults(1)
	f.Set(FaultMergeBeforeSwap, FaultSpec{Prob: 1, Crash: true})
	db.SetFaults(f)
	if err := db.AgeOnline("Header", 2016); !errors.Is(err, ErrInjected) {
		t.Fatalf("AgeOnline error = %v, want injected fault", err)
	}
	if hot := tbl.Partition(1).Delta.Rows(); hot != 2 {
		t.Fatalf("hot delta holds %d rows after the abort, want both versions", hot)
	}
	db.SetFaults(nil)
	requireKey(t, db, tbl, 1, 2015)
}

// TestSortedKeyMainCarriesNoIndex pins the main-store side of the index: a
// bulk-loaded main with sorted unique keys answers through its dictionary
// alone, an unsorted one through a value-ID-to-row array.
func TestSortedKeyMainCarriesNoIndex(t *testing.T) {
	for _, sorted := range []bool{true, false} {
		db := Open()
		tbl, err := db.Create(headerSchema())
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]column.Value
		var tids []txn.TID
		for i := int64(0); i < 100; i++ {
			pk := 10 + 3*i
			if !sorted {
				pk = 10 + 3*((i*37)%100)
			}
			rows = append(rows, headerRow(pk, 2010+i%5, "A"))
			tids = append(tids, txn.TID(i+1))
		}
		if err := tbl.BulkLoadMain(0, rows, tids); err != nil {
			t.Fatal(err)
		}
		if got := tbl.Partition(0).Main.keyRows == nil; got != sorted {
			t.Fatalf("sorted=%v: keyRows nil = %v", sorted, got)
		}
		for row, r := range rows {
			ref, ok := tbl.LookupPK(r[0].I)
			if !ok || ref != (RowRef{InMain: true, Row: row}) {
				t.Fatalf("sorted=%v: LookupPK(%d) = %v, %v, want main row %d", sorted, r[0].I, ref, ok, row)
			}
		}
		for _, pk := range []int64{9, 11, 1 << 40, -5} {
			if ref, ok := tbl.LookupPK(pk); ok {
				t.Fatalf("sorted=%v: absent key %d found at %v", sorted, pk, ref)
			}
		}
	}
}

// pkVal is a key's live version in the PK-index model.
type pkVal struct {
	year int64
	cat  string
}

// pkKeys bounds the key domain of the random PK-index ops, small so that
// writes collide.
const pkKeys = 12

// pkHarness drives random writes, staged online merges, full merges and
// agings against a table and checks LookupPK against a map model.
type pkHarness struct {
	t     *testing.T
	db    *DB
	tbl   *Table
	hook  *duringBuildHook
	model map[int64]pkVal // committed live versions
	om    *OnlineMerge    // staged merge in flight, or nil
	built bool
}

// duringBuildHook runs its pending function once, inside the next build
// phase of a merge or aging (between prepare and swap).
type duringBuildHook struct{ fn func() }

func (h *duringBuildHook) FoldOnline(*DB, *Table, int, txn.Snapshot) {
	if fn := h.fn; fn != nil {
		h.fn = nil
		fn()
	}
}
func (h *duringBuildHook) SwapOnline(*DB, *Table, int, txn.Snapshot) {}
func (h *duringBuildHook) AbortOnline(*DB, *Table, int)              {}

// check compares LookupPK for every key of the domain against want. After a
// transaction resolved it also compares the number of committed-visible
// rows against the model; an open transaction's writes are not yet visible.
func (h *pkHarness) check(what string, want map[int64]pkVal, resolved bool) {
	h.t.Helper()
	for k := int64(1); k <= pkKeys; k++ {
		ref, ok := h.tbl.LookupPK(k)
		v, live := want[k]
		if ok != live {
			h.t.Fatalf("%s: LookupPK(%d) found=%v, model live=%v", what, k, ok, live)
		}
		if !ok {
			continue
		}
		got := pkVal{h.tbl.Get(ref, 1).I, h.tbl.Get(ref, 2).S}
		if h.tbl.Get(ref, 0).I != k || got != v {
			h.t.Fatalf("%s: LookupPK(%d) = %v reads key %d %v, want %v", what, k, ref, h.tbl.Get(ref, 0).I, got, v)
		}
	}
	if !resolved {
		return
	}
	if n := len(visibleRows(h.db, h.tbl)); n != len(want) {
		h.t.Fatalf("%s: %d visible rows, model has %d keys", what, n, len(want))
	}
}

// txn runs one transaction of one to three inserts, updates or deletes
// drawn from seed, checking the index and duplicate-key rejection after
// each write, then commits or aborts it.
func (h *pkHarness) txn(seed int64) {
	h.t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tx := h.db.Txns().Begin()
	pending := maps.Clone(h.model)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		k := 1 + rng.Int63n(pkKeys)
		v := pkVal{2010 + rng.Int63n(10), string(rune('A' + rng.Intn(4)))}
		_, exists := pending[k]
		var err error
		op := rng.Intn(3)
		switch op {
		case 0:
			_, err = h.tbl.Insert(tx, headerRow(k, v.year, v.cat))
		case 1:
			err = h.tbl.Update(tx, k, map[string]column.Value{"FiscalYear": column.IntV(v.year), "Cat": column.StrV(v.cat)})
		default:
			err = h.tbl.Delete(tx, k)
		}
		// An insert must fail exactly on a live key, an update or delete
		// exactly on an absent one.
		if wantErr := exists == (op == 0); wantErr != (err != nil) {
			h.t.Fatalf("write %d of key %d (live=%v): err = %v", op, k, exists, err)
		}
		if err == nil && op < 2 {
			pending[k] = v
		} else if err == nil {
			delete(pending, k)
		}
		h.check("in txn", pending, false)
	}
	if rng.Intn(4) == 0 {
		tx.Abort()
	} else {
		tx.Commit()
		h.model = pending
	}
	h.check("after txn", h.model, true)
}

// runPKOps applies ops (three bytes each: op, argument, argument) to a
// single-partition or a hot/cold table, checking the index after every op.
func runPKOps(t *testing.T, partitioned bool, ops []byte) {
	db := Open()
	var tbl *Table
	var err error
	if partitioned {
		tbl, err = db.CreatePartitioned(headerSchema(), "FiscalYear", []RangePartition{
			{Name: "cold", Lo: 0, Hi: 2014},
			{Name: "hot", Lo: 2014, Hi: 1 << 40},
		})
	} else {
		tbl, err = db.Create(headerSchema())
	}
	if err != nil {
		t.Fatal(err)
	}
	h := &pkHarness{t: t, db: db, tbl: tbl, hook: &duringBuildHook{}, model: map[int64]pkVal{}}
	db.RegisterMergeHook(h.hook)
	for p := 0; p+2 < len(ops) && p < 3*300; p += 3 {
		op, a, b := ops[p]%6, ops[p+1], ops[p+2]
		seed := int64(a)<<8 | int64(b)
		switch op {
		case 0, 1, 2: // a write transaction
			h.txn(seed)
		case 3: // advance the staged merge: start, build, finish or abort
			switch {
			case h.om == nil:
				if h.om, err = db.StartOnlineMerge("Header", int(a)%len(tbl.parts), b%2 == 0); err != nil {
					t.Fatal(err)
				}
			case b%5 == 0:
				h.om.Abort()
				h.om, h.built = nil, false
			case !h.built:
				if err := h.om.Build(); err != nil {
					t.Fatal(err)
				}
				h.built = true
			default:
				if _, err := h.om.Finish(); err != nil {
					t.Fatal(err)
				}
				h.om, h.built = nil, false
			}
			h.check(fmt.Sprintf("op %d: merge stage", p/3), h.model, true)
		case 4: // a full merge with a write transaction inside its build
			if h.om != nil {
				continue
			}
			h.hook.fn = func() { h.txn(seed) }
			if _, err := db.MergeOnline("Header", int(a)%len(tbl.parts), b%2 == 0); err != nil {
				t.Fatal(err)
			}
			h.check(fmt.Sprintf("op %d: merge", p/3), h.model, true)
		case 5: // an aging with a write transaction inside its build
			if !partitioned || h.om != nil {
				continue
			}
			for part := range tbl.parts {
				if _, err := db.MergeOnline("Header", part, a%2 == 0); err != nil {
					t.Fatal(err)
				}
			}
			crash := b%3 == 0
			if crash {
				f := NewFaults(1)
				f.Set(FaultMergeBeforeSwap, FaultSpec{Prob: 1, Crash: true})
				db.SetFaults(f)
			}
			h.hook.fn = func() { h.txn(seed) }
			err := db.AgeOnline("Header", tbl.parts[0].Hi+int64(a%3))
			db.SetFaults(nil)
			if crash != errors.Is(err, ErrInjected) || !crash && err != nil {
				t.Fatalf("op %d: AgeOnline (crash armed %v): %v", p/3, crash, err)
			}
			h.check(fmt.Sprintf("op %d: aging", p/3), h.model, true)
		}
	}
	if h.om != nil {
		h.om.Abort()
		h.check("final abort", h.model, true)
	}
}

// FuzzPKIndex checks random inserts, updates, deletes, commits and aborts,
// interleaved with staged online merges (finished or aborted), full merges
// and agings with writes inside their build phase, against a map model of
// the live version of every key.
func FuzzPKIndex(f *testing.F) {
	f.Add(false, []byte{0, 1, 2, 3, 0, 0, 0, 3, 4, 3, 0, 1, 1, 5, 6, 3, 0, 1, 2, 9, 9, 3, 1, 5})
	f.Add(true, []byte{0, 1, 2, 1, 4, 4, 3, 1, 1, 0, 7, 7, 5, 2, 1, 2, 8, 1, 5, 1, 3, 4, 0, 0})
	f.Add(true, []byte{3, 0, 1, 0, 2, 2, 3, 0, 1, 1, 3, 3, 3, 0, 0, 0, 9, 4})
	f.Fuzz(func(t *testing.T, partitioned bool, ops []byte) {
		runPKOps(t, partitioned, ops)
	})
}

// TestPKIndexRandomOps runs FuzzPKIndex's check over seeded random op
// sequences on both table layouts.
func TestPKIndexRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*150)
		rng.Read(ops)
		runPKOps(t, seed%2 == 0, ops)
	}
}

// BenchmarkLookupPK measures one primary-key lookup on a 200 000-row
// bulk-loaded main of even keys plus a 10 000-row delta: a hit in each
// store, a key above every key, and a key absent from inside the main's
// range; and a hit in a 200 000-row main of dense keys 1..n, whose key
// dictionary answers without a search.
func BenchmarkLookupPK(b *testing.B) {
	const mainRows, deltaRows = 200_000, 10_000
	db := Open()
	load := func(name string, step int64) *Table {
		s := headerSchema()
		s.Name = name
		tbl, err := db.Create(s)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([][]column.Value, mainRows)
		tids := make([]txn.TID, mainRows)
		for i := range rows {
			rows[i] = headerRow(step*int64(i+1), 2010+int64(i%5), "A")
			tids[i] = txn.TID(i + 1)
		}
		if err := tbl.BulkLoadMain(0, rows, tids); err != nil {
			b.Fatal(err)
		}
		return tbl
	}
	tbl, dense := load("Sparse", 2), load("Dense", 1)
	for i := range deltaRows {
		tx := db.Txns().Begin()
		if _, err := tbl.Insert(tx, headerRow(2*mainRows+1+int64(i), 2015, "B")); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
	for _, c := range []struct {
		name  string
		tbl   *Table
		key   int64
		found bool
	}{
		{"main-hit", tbl, mainRows, true},
		{"delta-hit", tbl, 2*mainRows + deltaRows/2, true},
		{"absent-above", tbl, 1 << 40, false},
		{"absent-inside", tbl, mainRows + 1, false},
		{"main-hit-dense", dense, mainRows / 2, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, ok := c.tbl.LookupPK(c.key); ok != c.found {
					b.Fatalf("LookupPK(%d) found=%v", c.key, ok)
				}
			}
		})
	}
}
