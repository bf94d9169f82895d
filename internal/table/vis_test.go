package table

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/txn"
	"aggcache/internal/vec"
)

// visKeys bounds the key domain of the visibility model's writes, small so
// that writes collide.
const visKeys = 16

// visSchema is a table whose every row version carries a unique Ver, so
// the model can name the version a store row holds.
func visSchema(name string) Schema {
	return Schema{
		Name: name,
		Cols: []ColumnDef{
			{Name: "K", Kind: column.Int64},
			{Name: "Year", Kind: column.Int64},
			{Name: "Ver", Kind: column.Int64},
		},
		PK: "K",
	}
}

// visVersion is the model of one row version: the table it belongs to and
// its timestamps. create is txn.Aborted once its transaction aborted;
// invalid is 0 while no committed or in-flight transaction invalidated it.
type visVersion struct {
	tbl             int
	key             int64
	create, invalid txn.TID
}

// visHarness drives random writes, staged online merges, full merges,
// agings, bulk loads and snapshot pins, and checks every store against a
// model that keeps each version's (create, invalid).
type visHarness struct {
	t      *testing.T
	db     *DB
	tables []*Table
	hook   *duringBuildHook
	vers   map[int64]*visVersion
	next   int64
	pins   []txn.Snapshot
	om     *OnlineMerge // staged merge in flight, or nil
	omTbl  int
	built  bool
}

func (h *visHarness) newVersion(tbl int, key int64, create txn.TID) int64 {
	h.next++
	h.vers[h.next] = &visVersion{tbl: tbl, key: key, create: create}
	return h.next
}

// liveVersion returns the model's live version of key: not aborted, not
// invalidated, committed or in flight.
func (h *visHarness) liveVersion(tbl int, key int64) (int64, bool) {
	for ver, v := range h.vers {
		if v.tbl == tbl && v.key == key && v.create != txn.Aborted && v.invalid == 0 {
			return ver, true
		}
	}
	return 0, false
}

// check compares every store of every table with the model: for each
// snapshot, VisibilityInto row by row and LiveRows, and which versions the
// table shows; per row, InvalidTID; per key, LookupPK. On a main store,
// VanishedSince must name the rows of Visibility(old).AndNot(Visibility(cur))
// for every ordered pair of the snapshots that it admits.
func (h *visHarness) check(what string, extra ...txn.Snapshot) {
	h.t.Helper()
	snaps := append(append([]txn.Snapshot{h.db.Txns().ReadSnapshot()}, h.pins...), extra...)
	var bs vec.BitSet
	for ti, tbl := range h.tables {
		seen := make([]map[int64]bool, len(snaps))
		for i := range seen {
			seen[i] = map[int64]bool{}
		}
		for pi, p := range tbl.Partitions() {
			for si, st := range p.Stores() {
				for row := 0; row < st.Rows(); row++ {
					v := h.vers[st.Col(2).Int64(row)]
					if got := st.InvalidTID(row); got != v.invalid {
						h.t.Fatalf("%s: %s part %d store %d row %d: InvalidTID %d, model %d",
							what, tbl.Name(), pi, si, row, got, v.invalid)
					}
				}
				for i, snap := range snaps {
					st.VisibilityInto(snap, &bs)
					if bs.Len() != st.Rows() {
						h.t.Fatalf("%s: %s part %d store %d: %d visibility bits for %d rows", what, tbl.Name(), pi, si, bs.Len(), st.Rows())
					}
					n := 0
					for row := 0; row < st.Rows(); row++ {
						ver := st.Col(2).Int64(row)
						v := h.vers[ver]
						want := snap.Sees(v.create, v.invalid)
						if bs.Get(row) != want {
							h.t.Fatalf("%s: %s part %d store %d row %d (ver %d, create %d, invalid %d) snapshot %+v: visible %v, model %v",
								what, tbl.Name(), pi, si, row, ver, v.create, v.invalid, snap, bs.Get(row), want)
						}
						if want {
							n++
							if seen[i][ver] {
								h.t.Fatalf("%s: %s: version %d visible twice to %+v", what, tbl.Name(), ver, snap)
							}
							seen[i][ver] = true
						}
					}
					if got := st.LiveRows(snap); got != n {
						h.t.Fatalf("%s: %s part %d store %d: LiveRows %d, want %d", what, tbl.Name(), pi, si, got, n)
					}
				}
				if st.IsMain() {
					h.checkVanished(fmt.Sprintf("%s: %s part %d store %d", what, tbl.Name(), pi, si), st, snaps)
				}
			}
		}
		for i, snap := range snaps {
			for ver, v := range h.vers {
				if v.tbl == ti && snap.Sees(v.create, v.invalid) && !seen[i][ver] {
					h.t.Fatalf("%s: %s: version %d (create %d, invalid %d) lost for %+v", what, tbl.Name(), ver, v.create, v.invalid, snap)
				}
			}
		}
		for k := int64(1); k <= visKeys; k++ {
			want, live := h.liveVersion(ti, k)
			ref, ok := tbl.LookupPK(k)
			if ok != live || ok && tbl.Get(ref, 2).I != want {
				h.t.Fatalf("%s: %s: LookupPK(%d) = %v, %v, model version %d live %v", what, tbl.Name(), k, ref, ok, want, live)
			}
		}
	}
}

// checkVanished compares a main's VanishedSince with the difference of two
// renders for every ordered pair (old, cur) of snaps with old.Self == 0 and
// old.High <= cur.High.
func (h *visHarness) checkVanished(where string, st *Store, snaps []txn.Snapshot) {
	h.t.Helper()
	for _, old := range snaps {
		for _, cur := range snaps {
			if old.Self != 0 || old.High > cur.High {
				continue
			}
			want := st.Visibility(old).AndNot(st.Visibility(cur))
			got, n := st.VanishedSince(old, cur)
			if n != want.Count() || n == 0 && got != nil || n > 0 && !got.Equal(want) {
				h.t.Fatalf("%s: VanishedSince(%+v, %+v) = %v (%d rows), want %v",
					where, old, cur, got, n, want)
			}
		}
	}
}

// txn runs one transaction of one to three inserts, updates or deletes on
// random tables, checking after each write (the writer through its own
// snapshot too), then commits or aborts it.
func (h *visHarness) txn(rng *rand.Rand) {
	h.t.Helper()
	tx := h.db.Txns().Begin()
	var created, invalidated []*visVersion
	for n := 1 + rng.Intn(3); n > 0; n-- {
		ti := rng.Intn(len(h.tables))
		tbl := h.tables[ti]
		k := 1 + rng.Int63n(visKeys)
		year := 2010 + rng.Int63n(10)
		old, exists := h.liveVersion(ti, k)
		var err error
		op := rng.Intn(3)
		switch op {
		case 0:
			ver := h.next + 1
			_, err = tbl.Insert(tx, []column.Value{column.IntV(k), column.IntV(year), column.IntV(ver)})
		case 1:
			ver := h.next + 1
			err = tbl.Update(tx, k, map[string]column.Value{"Year": column.IntV(year), "Ver": column.IntV(ver)})
		default:
			err = tbl.Delete(tx, k)
		}
		if wantErr := exists == (op == 0); wantErr != (err != nil) {
			h.t.Fatalf("write %d of %s key %d (live=%v): err = %v", op, tbl.Name(), k, exists, err)
		}
		if err != nil {
			continue
		}
		if op > 0 {
			h.vers[old].invalid = tx.ID()
			invalidated = append(invalidated, h.vers[old])
		}
		if op < 2 {
			created = append(created, h.vers[h.newVersion(ti, k, tx.ID())])
		}
		h.check("in txn", tx.Snapshot())
	}
	if rng.Intn(4) == 0 {
		tx.Abort()
		for _, v := range created {
			v.create = txn.Aborted
		}
		for _, v := range invalidated {
			v.invalid = 0
		}
	} else {
		tx.Commit()
	}
	h.check("after txn")
}

// bulkLoad creates a table and bulk-loads up to visKeys rows into it, with
// TIDs above the watermark (then committed by AdvanceTo), at or below it,
// or both, some of them aborted.
func (h *visHarness) bulkLoad(rng *rand.Rand) {
	ti := len(h.tables)
	tbl, err := h.db.Create(visSchema(fmt.Sprintf("Bulk%d", ti)))
	if err != nil {
		h.t.Fatal(err)
	}
	h.tables = append(h.tables, tbl)
	w := h.db.Txns().Watermark()
	mode := rng.Intn(3)
	if w == 0 {
		mode = 0
	}
	n := 1 + rng.Intn(visKeys)
	keys := rng.Perm(n)
	rows := make([][]column.Value, n)
	tids := make([]txn.TID, n)
	top := w
	for i := range rows {
		switch {
		case rng.Intn(8) == 0:
			tids[i] = txn.Aborted
		case mode == 0 || mode == 2 && rng.Intn(2) == 0:
			tids[i] = w + 1 + txn.TID(rng.Intn(n))
		default:
			tids[i] = 1 + txn.TID(rng.Int63n(int64(w)))
		}
		if tids[i] != txn.Aborted {
			top = max(top, tids[i])
		}
		k := int64(keys[i] + 1)
		rows[i] = []column.Value{column.IntV(k), column.IntV(2015), column.IntV(h.newVersion(ti, k, tids[i]))}
	}
	if err := tbl.BulkLoadMain(0, rows, tids); err != nil {
		h.t.Fatal(err)
	}
	h.db.Txns().AdvanceTo(top)
}

// runVisOps applies ops (three bytes each: op, argument, argument),
// checking every store against the model after every step.
func runVisOps(t *testing.T, partitioned bool, ops []byte) {
	db := Open()
	var tbl *Table
	var err error
	if partitioned {
		tbl, err = db.CreatePartitioned(visSchema("V"), "Year", []RangePartition{
			{Name: "cold", Lo: 0, Hi: 2014},
			{Name: "hot", Lo: 2014, Hi: 1 << 40},
		})
	} else {
		tbl, err = db.Create(visSchema("V"))
	}
	if err != nil {
		t.Fatal(err)
	}
	h := &visHarness{t: t, db: db, tables: []*Table{tbl}, hook: &duringBuildHook{}, vers: map[int64]*visVersion{}}
	db.RegisterMergeHook(h.hook)
	for p := 0; p+2 < len(ops) && p < 3*300; p += 3 {
		op, a, b := ops[p]%9, ops[p+1], ops[p+2]
		rng := rand.New(rand.NewSource(int64(a)<<8 | int64(b)))
		ti := int(a) % len(h.tables)
		name := h.tables[ti].Name()
		part := int(b) % len(h.tables[ti].parts)
		step := fmt.Sprintf("op %d (%d)", p/3, op)
		switch op {
		case 0, 1, 2: // a write transaction
			h.txn(rng)
		case 3: // advance the staged merge: start, build, finish or abort
			switch {
			case h.om == nil:
				if h.om, err = db.StartOnlineMerge(name, part, b%3 == 0); err != nil {
					t.Fatal(err)
				}
				h.omTbl = ti
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
		case 4: // a full merge with a write transaction inside its build
			if h.om != nil && h.omTbl == ti {
				continue
			}
			h.hook.fn = func() { h.txn(rng) }
			if _, err := db.MergeOnline(name, part, b%3 == 0); err != nil {
				t.Fatal(err)
			}
			h.hook.fn = nil
		case 5: // an aging with a write transaction inside its build
			if !partitioned || h.om != nil && h.omTbl == 0 {
				continue
			}
			for part := range tbl.parts {
				if _, err := db.MergeOnline("V", part, a%2 == 0); err != nil {
					t.Fatal(err)
				}
			}
			crash := b%3 == 0
			if crash {
				f := NewFaults(1)
				f.Set(FaultMergeBeforeSwap, FaultSpec{Prob: 1, Crash: true})
				db.SetFaults(f)
			}
			h.hook.fn = func() { h.txn(rng) }
			err := db.AgeOnline("V", tbl.parts[0].Hi+int64(a%3))
			h.hook.fn = nil
			db.SetFaults(nil)
			if crash != errors.Is(err, ErrInjected) || !crash && err != nil {
				t.Fatalf("%s: AgeOnline (crash armed %v): %v", step, crash, err)
			}
		case 6: // pin a read snapshot
			h.pins = append(h.pins, db.Txns().Acquire())
		case 7: // release a pinned snapshot
			if len(h.pins) > 0 {
				i := int(a) % len(h.pins)
				db.Txns().Release(h.pins[i])
				h.pins = append(h.pins[:i], h.pins[i+1:]...)
			}
		case 8: // bulk-load a new table
			if len(h.tables) < 4 {
				h.bulkLoad(rng)
			}
		}
		h.check(step)
	}
	if h.om != nil {
		h.om.Abort()
		h.check("final abort")
	}
}

// FuzzMainVisibility checks random inserts, updates, deletes, commits and
// aborts, interleaved with staged online merges (finished or aborted), full
// merges and agings with writes inside their build phase, bulk loads and
// pinned snapshots, against a model of every row version's timestamps.
func FuzzMainVisibility(f *testing.F) {
	f.Add(false, []byte{6, 0, 0, 0, 1, 2, 3, 0, 0, 1, 4, 4, 3, 0, 1, 8, 3, 3, 0, 9, 9, 3, 1, 1, 4, 5, 6, 7, 0, 0})
	f.Add(true, []byte{0, 1, 2, 6, 1, 1, 1, 4, 4, 5, 1, 1, 2, 8, 1, 4, 0, 3, 5, 2, 7, 7, 0, 0, 3, 0, 0})
	f.Add(true, []byte{8, 2, 2, 6, 0, 0, 0, 1, 5, 1, 2, 3, 4, 1, 0, 2, 4, 4, 3, 1, 0, 0, 5, 5, 3, 1, 1, 3, 1, 2})
	f.Fuzz(func(t *testing.T, partitioned bool, ops []byte) {
		runVisOps(t, partitioned, ops)
	})
}

// TestMainVisibilityRandomOps runs FuzzMainVisibility's check over seeded
// random op sequences on both table layouts.
func TestMainVisibilityRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*150)
		rng.Read(ops)
		runVisOps(t, seed%2 == 0, ops)
	}
}

// BenchmarkVisibility renders a 200 000-row main's visibility with 0 %,
// 0.1 % and 10 % of its rows invalidated, with and without 1 % of its rows
// as exceptions (created above the settled TID).
func BenchmarkVisibility(b *testing.B) {
	const rows = 200_000
	for _, exc := range []bool{false, true} {
		for _, frac := range []float64{0, 0.001, 0.1} {
			db := Open()
			tbl, err := db.Create(headerSchema())
			if err != nil {
				b.Fatal(err)
			}
			vals := make([][]column.Value, rows)
			tids := make([]txn.TID, rows)
			for i := range vals {
				vals[i] = headerRow(int64(i+1), 2010+int64(i%5), "A")
				tids[i] = 1
			}
			db.Txns().AdvanceTo(1)
			if exc {
				s := db.Txns().Acquire()
				for i := 0; i < rows; i += 100 {
					tids[i] = 2
				}
				db.Txns().AdvanceTo(2)
				defer db.Txns().Release(s)
			}
			if err := tbl.BulkLoadMain(0, vals, tids); err != nil {
				b.Fatal(err)
			}
			st := tbl.Partition(0).Main
			if n := len(st.mv.exc); exc != (n == rows/100) || !exc && n != 0 {
				b.Fatalf("exceptions=%v: %d exception rows", exc, n)
			}
			rng := rand.New(rand.NewSource(1))
			for n := int(frac * rows); n > 0; n-- {
				tx := db.Txns().Begin()
				if err := tbl.Delete(tx, 1+rng.Int63n(rows)); err != nil {
					n++ // already deleted: draw again
				}
				tx.Commit()
			}
			snap := db.Txns().ReadSnapshot()
			var bs vec.BitSet
			b.Run(fmt.Sprintf("inv=%g%%/exc=%v", frac*100, exc), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					st.VisibilityInto(snap, &bs)
				}
			})
		}
	}
}
