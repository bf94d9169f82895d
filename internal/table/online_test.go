package table

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/column"
	"aggcache/internal/txn"
)

// onlineEnv is a single-table database with n committed rows in the delta.
func onlineEnv(t *testing.T, n int) (*DB, *Table) {
	t.Helper()
	db := Open()
	tbl, err := db.Create(headerSchema())
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, db, tbl, 1, n)
	return db, tbl
}

func insertRows(t *testing.T, db *DB, tbl *Table, from int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := db.Txns().Begin()
		id := from + int64(i)
		if _, err := tbl.Insert(tx, []column.Value{
			column.IntV(id), column.IntV(2010 + id%5), column.StrV(fmt.Sprintf("c%d", id%3)),
		}); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
}

// visibleRows renders the committed-visible rows of a table as sorted
// strings — the canonical form the merge tests compare across store
// layouts.
func visibleRows(db *DB, tbl *Table) []string {
	snap := db.Txns().ReadSnapshot()
	return visibleRowsAt(tbl, snap)
}

func visibleRowsAt(tbl *Table, snap txn.Snapshot) []string {
	var out []string
	for _, p := range tbl.Partitions() {
		for _, st := range p.Stores() {
			vis := st.Visibility(snap)
			for row := 0; row < st.Rows(); row++ {
				if !vis.Get(row) {
					continue
				}
				s := ""
				for c := 0; c < len(st.cols); c++ {
					s += st.cols[c].Value(row).String() + "|"
				}
				out = append(out, s)
			}
		}
	}
	sort.Strings(out)
	return out
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOnlineMergeBasic merges a delta with no concurrent activity: visible
// rows are unchanged, the delta empties, unpinned invalidated versions go.
func TestOnlineMergeBasic(t *testing.T) {
	db, tbl := onlineEnv(t, 20)
	tx := db.Txns().Begin()
	if err := tbl.Delete(tx, 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(tx, 5, map[string]column.Value{"FiscalYear": column.IntV(1999)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	before := visibleRows(db, tbl)

	stats, err := db.MergeOnline("Header", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FromDelta == 0 {
		t.Fatalf("stats = %+v, want delta rows merged", stats)
	}
	if got := visibleRows(db, tbl); !equalRows(got, before) {
		t.Fatalf("rows changed across online merge:\n got %v\nwant %v", got, before)
	}
	p := tbl.Partition(0)
	if p.Delta.Rows() != 0 {
		t.Fatalf("delta not emptied: %d rows", p.Delta.Rows())
	}
	if p.Delta2 != nil || p.merge != nil {
		t.Fatal("merge state not cleared")
	}
	// The invalidated versions (delete + update-old) must be gone: nothing
	// pinned them.
	if stats.Dropped == 0 {
		t.Fatalf("stats = %+v, want dropped invalidated versions", stats)
	}
}

// TestOnlineMergeWriteCoalescing drives the staged API: writes landing
// between prepare and swap coalesce in delta2 and survive as the new delta;
// updates against frozen rows replay onto the new main.
func TestOnlineMergeWriteCoalescing(t *testing.T) {
	db, tbl := onlineEnv(t, 10)
	om, err := db.StartOnlineMerge("Header", 0, false)
	if err != nil {
		t.Fatal(err)
	}

	// A write during the merge: one new row, one update of a frozen row,
	// one delete of a frozen row.
	tx := db.Txns().Begin()
	ref, err := tbl.Insert(tx, []column.Value{column.IntV(100), column.IntV(2020), column.StrV("new")})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.D2 {
		t.Fatalf("insert during merge landed in %+v, want delta2", ref)
	}
	if err := tbl.Update(tx, 7, map[string]column.Value{"Cat": column.StrV("upd")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(tx, 2); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	want := visibleRows(db, tbl)

	if err := om.Build(); err != nil {
		t.Fatal(err)
	}
	stats, err := om.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Update lands its new version in delta2 alongside the insert.
	if stats.Delta2Rows != 2 {
		t.Fatalf("Delta2Rows = %d, want 2", stats.Delta2Rows)
	}
	if got := visibleRows(db, tbl); !equalRows(got, want) {
		t.Fatalf("rows changed across coalescing merge:\n got %v\nwant %v", got, want)
	}
	// The primary-key index must resolve through the new layout.
	for _, pk := range []int64{1, 7, 100} {
		ref, ok := tbl.LookupPK(pk)
		if !ok {
			t.Fatalf("pk %d lost", pk)
		}
		if got := tbl.Get(ref, 0).I; got != pk {
			t.Fatalf("pk %d resolves to row with id %d", pk, got)
		}
	}
	if _, ok := tbl.LookupPK(2); ok {
		t.Fatal("deleted pk 2 still indexed")
	}
	// The frozen rows hit by the update/delete got their invalidation
	// timestamps replayed onto the new main.
	if inv := tbl.Partition(0).Main.Invalidations(); inv != 2 {
		t.Fatalf("new main invalidations = %d, want 2", inv)
	}
}

// TestOnlineMergeCrashBeforeSwap injects a crash after the build: the old
// partition must be fully intact — delta2 rows folded back — and the
// partition re-mergeable.
func TestOnlineMergeCrashBeforeSwap(t *testing.T) {
	db, tbl := onlineEnv(t, 12)
	f := NewFaults(1)
	f.Set(FaultMergeBeforeSwap, FaultSpec{Prob: 1, Crash: true})
	db.SetFaults(f)

	om, err := db.StartOnlineMerge("Header", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Txns().Begin()
	if _, err := tbl.Insert(tx, []column.Value{column.IntV(200), column.IntV(2021), column.StrV("d2")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(tx, 4, map[string]column.Value{"Cat": column.StrV("upd")}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	want := visibleRows(db, tbl)

	if err := om.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := om.Finish(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Finish error = %v, want injected fault", err)
	}
	p := tbl.Partition(0)
	if p.Delta2 != nil || p.merge != nil {
		t.Fatal("rollback left merge state behind")
	}
	if got := visibleRows(db, tbl); !equalRows(got, want) {
		t.Fatalf("rollback changed data:\n got %v\nwant %v", got, want)
	}
	for _, pk := range []int64{4, 200} {
		ref, ok := tbl.LookupPK(pk)
		if !ok || tbl.Get(ref, 0).I != pk {
			t.Fatalf("pk %d broken after rollback", pk)
		}
	}

	// Exactly re-mergeable: the next (uninjected) merge completes and
	// preserves the data.
	db.SetFaults(nil)
	if _, err := db.MergeOnline("Header", 0, false); err != nil {
		t.Fatal(err)
	}
	if got := visibleRows(db, tbl); !equalRows(got, want) {
		t.Fatalf("re-merge changed data:\n got %v\nwant %v", got, want)
	}
	if p.Delta.Rows() != 0 {
		t.Fatalf("re-merge left %d delta rows", p.Delta.Rows())
	}
}

// TestOnlineMergeCrashAfterSwap injects a crash after the swap: the error
// surfaces but the merge is already committed — nothing from delta2 is lost.
func TestOnlineMergeCrashAfterSwap(t *testing.T) {
	db, tbl := onlineEnv(t, 8)
	f := NewFaults(1)
	f.Set(FaultMergeAfterSwap, FaultSpec{Prob: 1, Crash: true})
	db.SetFaults(f)

	om, err := db.StartOnlineMerge("Header", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Txns().Begin()
	if _, err := tbl.Insert(tx, []column.Value{column.IntV(300), column.IntV(2022), column.StrV("d2")}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	want := visibleRows(db, tbl)

	if err := om.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := om.Finish(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Finish error = %v, want injected fault", err)
	}
	p := tbl.Partition(0)
	if p.merge != nil || p.Delta2 != nil {
		t.Fatal("swap did not settle")
	}
	if p.Main.Rows() == 0 || p.Delta.Rows() != 1 {
		t.Fatalf("post-swap layout main=%d delta=%d, want merged main and the delta2 row", p.Main.Rows(), p.Delta.Rows())
	}
	if got := visibleRows(db, tbl); !equalRows(got, want) {
		t.Fatalf("crash after swap lost data:\n got %v\nwant %v", got, want)
	}
}

// TestOnlineMergeCrashPrepared injects a crash right after prepare: the
// rollback happens before any build work.
func TestOnlineMergeCrashPrepared(t *testing.T) {
	db, tbl := onlineEnv(t, 5)
	want := visibleRows(db, tbl)
	f := NewFaults(1)
	f.Set(FaultMergePrepared, FaultSpec{Prob: 1, Crash: true})
	db.SetFaults(f)
	if _, err := db.StartOnlineMerge("Header", 0, false); !errors.Is(err, ErrInjected) {
		t.Fatalf("StartOnlineMerge error = %v, want injected fault", err)
	}
	p := tbl.Partition(0)
	if p.Delta2 != nil || p.merge != nil {
		t.Fatal("prepare crash left merge state behind")
	}
	if got := visibleRows(db, tbl); !equalRows(got, want) {
		t.Fatalf("prepare crash changed data:\n got %v\nwant %v", got, want)
	}
}

// TestOnlineMergePinnedReader pins a snapshot, deletes a row, and merges:
// the deleted version must be retained for the pinned reader and visible to
// it across the swap; after release, the next merge reclaims it.
func TestOnlineMergePinnedReader(t *testing.T) {
	db, tbl := onlineEnv(t, 6)
	snap, release := db.Txns().PinRead()
	defer release()

	tx := db.Txns().Begin()
	if err := tbl.Delete(tx, 2); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	wantPinned := visibleRowsAt(tbl, snap)

	stats, err := db.MergeOnline("Header", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RetainedForReaders != 1 {
		t.Fatalf("RetainedForReaders = %d, want 1", stats.RetainedForReaders)
	}
	if got := visibleRowsAt(tbl, snap); !equalRows(got, wantPinned) {
		t.Fatalf("pinned snapshot changed across swap:\n got %v\nwant %v", got, wantPinned)
	}
	// The present does not see the deleted row.
	if got := visibleRows(db, tbl); len(got) != 5 {
		t.Fatalf("current visibility = %d rows, want 5", len(got))
	}

	// After the pin is gone the version is reclaimable.
	release()
	stats, err = db.MergeOnline("Header", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 || stats.RetainedForReaders != 0 {
		t.Fatalf("post-release merge stats = %+v, want the retained version dropped", stats)
	}
}

// TestOnlineMergeReaderLatency arms a slow build and asserts, by ordering
// rather than by a wall-clock bound, that readers are never blocked by it —
// the non-blocking property the online merge exists for. Once the merge is
// seen active, a fresh reader takes the read lock and lists the visible rows
// while the merge is still active. A reader blocked by the build could only
// finish after the swap, when the merge is no longer active.
func TestOnlineMergeReaderLatency(t *testing.T) {
	db, tbl := onlineEnv(t, 50)
	f := NewFaults(1)
	f.Set(FaultMergeBuild, FaultSpec{Prob: 1, Delay: 300 * time.Millisecond})
	db.SetFaults(f)
	want := len(visibleRows(db, tbl))

	done := make(chan error, 1)
	go func() {
		_, err := db.MergeOnline("Header", 0, false)
		done <- err
	}()

	active := func() bool {
		db.RLock()
		defer db.RUnlock()
		return db.MergeActive("Header")
	}
	for !active() {
		select {
		case err := <-done:
			t.Fatalf("merge finished (err %v) without ever being seen active", err)
		default:
			runtime.Gosched()
		}
	}
	db.RLock()
	rows := visibleRows(db, tbl)
	stillActive := db.MergeActive("Header")
	db.RUnlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !stillActive {
		t.Fatal("a reader started during the merge build finished only after the swap")
	}
	if len(rows) != want {
		t.Fatalf("reader during the build saw %d rows, want %d", len(rows), want)
	}
}

// TestOnlineMergeConcurrentSoak runs merges in a loop against concurrent
// writers and readers; run with -race. Readers assert a torn-read detector:
// every committed transaction writes K rows, so a consistent snapshot always
// sees a multiple of K.
func TestOnlineMergeConcurrentSoak(t *testing.T) {
	db, tbl := onlineEnv(t, 30)
	const k = 3 // rows per transaction
	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		id := int64(1000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Lock()
			tx := db.Txns().Begin()
			ok := true
			for j := 0; j < k; j++ {
				if _, err := tbl.Insert(tx, []column.Value{
					column.IntV(id), column.IntV(2015), column.StrV("w"),
				}); err != nil {
					ok = false
					errs <- err
					break
				}
				id++
			}
			if ok {
				tx.Commit()
			} else {
				tx.Abort()
			}
			db.Unlock()
			if !ok {
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // reader with monotone-count and torn-read assertions
		defer wg.Done()
		last := -1
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.RLock()
			n := len(visibleRows(db, tbl))
			db.RUnlock()
			if (n-30)%k != 0 {
				errs <- fmt.Errorf("torn read: %d rows (not 30+%d·i)", n, k)
				return
			}
			if n < last {
				errs <- fmt.Errorf("row count went backwards: %d -> %d", last, n)
				return
			}
			last = n
		}
	}()

	for i := 0; i < 15; i++ {
		if _, err := db.MergeOnline("Header", 0, false); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tbl.Partition(0).merge != nil {
		t.Fatal("merge state leaked")
	}
}

// TestOnlineMergeAgingSoak runs group merges and agings of a hot/cold
// table against concurrent writers and readers; run with -race. Every
// writer transaction inserts k rows on both sides of the boundary and moves
// one earlier key across it by an update, so a consistent snapshot sees
// 40+k·i rows. The reader holds up to four pinned snapshots and re-reads
// each once a whole rebuild has run since it was pinned: no rebuild may
// change what a pinned snapshot sees. The writer commits a few
// transactions per rebuild (tokens), pauses while the deltas drain before
// an aging and resumes once its build has begun; a delay before every swap
// lets it write while a rebuild is in flight, and each rebuild waits for
// both goroutines to make progress.
func TestOnlineMergeAgingSoak(t *testing.T) {
	db := Open()
	tbl, err := db.CreatePartitioned(headerSchema(), "FiscalYear", []RangePartition{
		{Name: "cold", Lo: 0, Hi: 2010},
		{Name: "hot", Lo: 2010, Hi: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	const base, k = 40, 3
	year := func(id int64) int64 { return 2000 + id*7%40 }
	for id := int64(1); id <= base; id++ {
		tx := db.Txns().Begin()
		if _, err := tbl.Insert(tx, headerRow(id, year(id), "s")); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	f := NewFaults(1)
	f.Set(FaultMergeBeforeSwap, FaultSpec{Prob: 1, Delay: time.Millisecond})
	db.SetFaults(f)
	// gate pauses the writers: each holds it shared per transaction.
	var gate sync.RWMutex
	resume := &duringBuildHook{}
	db.RegisterMergeHook(resume)
	var txns, agingTxns, reads, rereads, rebuilds atomic.Int64
	// tokens caps the writer at four transactions per grant, one grant per
	// rebuild, so the table stays small enough to re-read often.
	tokens := make(chan struct{}, 4)
	grant := func() {
		for i := 0; i < cap(tokens); i++ {
			select {
			case tokens <- struct{}{}:
			default:
			}
		}
	}
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for id := int64(base + 1); ; {
			select {
			case <-stop:
				return
			case <-tokens:
			}
			gate.RLock()
			db.Lock()
			tx := db.Txns().Begin()
			var err error
			for j := 0; j < k && err == nil; j++ {
				_, err = tbl.Insert(tx, headerRow(id, year(id), "w"))
				id++
			}
			if err == nil {
				err = tbl.Update(tx, id*31%(id-1)+1, map[string]column.Value{"FiscalYear": column.IntV(year(id * 3))})
			}
			if err == nil {
				tx.Commit()
				txns.Add(1)
				if tbl.pendingSplit != nil {
					agingTxns.Add(1)
				}
			} else {
				tx.Abort()
			}
			db.Unlock()
			gate.RUnlock()
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		type pin struct {
			snap     txn.Snapshot
			release  func()
			rows     []string
			rebuilds int64
		}
		var pins []pin
		defer func() {
			for _, p := range pins {
				p.release()
			}
		}()
		last := -1
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, release := db.Txns().PinRead()
			db.RLock()
			rows := visibleRowsAt(tbl, snap)
			db.RUnlock()
			reads.Add(1)
			n := len(rows)
			if (n-base)%k != 0 || n < last {
				release()
				errs <- fmt.Errorf("read %d rows after %d (want 40+%d·i, never fewer)", n, last, k)
				return
			}
			last = n
			if len(pins) < 4 {
				pins = append(pins, pin{snap, release, rows, rebuilds.Load()})
			} else {
				release()
			}
			// Re-read the oldest pin once a whole rebuild has run since it
			// was taken.
			if p := pins[0]; rebuilds.Load() >= p.rebuilds+2 {
				pins = pins[1:]
				db.RLock()
				again := visibleRowsAt(tbl, p.snap)
				db.RUnlock()
				p.release()
				if !equalRows(again, p.rows) {
					errs <- fmt.Errorf("pinned snapshot %d changed: %d rows, then %d", p.snap.High, len(p.rows), len(again))
					return
				}
				rereads.Add(1)
			}
			runtime.Gosched()
		}
	}()

	// progress waits until the writer committed and the reader read since
	// the call, or one of them failed.
	progress := func() {
		for w, r := txns.Load(), reads.Load(); len(errs) == 0 && (txns.Load() == w || reads.Load() == r); {
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := 0; i < 20; i++ {
		grant()
		progress()
		rebuilds.Add(1)
		if i%5 != 4 {
			if err := db.MergeTablesOnline(false, "Header"); err != nil {
				t.Fatal(err)
			}
			continue
		}
		gate.Lock()
		if err := db.MergeTablesOnline(false, "Header"); err != nil {
			gate.Unlock()
			t.Fatal(err)
		}
		released := false
		resume.fn = func() { released = true; gate.Unlock(); grant() }
		err := db.AgeOnline("Header", tbl.Partition(0).Hi+3)
		if !released {
			gate.Unlock()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if agingTxns.Load() == 0 || rereads.Load() == 0 {
		t.Errorf("%d writer transactions while an aging was in flight, %d pinned re-reads; want both", agingTxns.Load(), rereads.Load())
	}
	if cold, hot := tbl.Partition(0), tbl.Partition(1); cold.Hi != 2022 || hot.Lo != 2022 {
		t.Fatalf("four agings moved the boundary to %d/%d, want 2022", cold.Hi, hot.Lo)
	}
	for _, p := range tbl.Partitions() {
		if p.merge != nil || p.Delta2 != nil || tbl.pendingSplit != nil {
			t.Fatal("rebuild state leaked")
		}
	}
	// Every key answers from the partition its year routes to.
	for pk := int64(1); pk <= base+k*txns.Load(); pk++ {
		ref, ok := tbl.LookupPK(pk)
		if !ok {
			t.Fatalf("key %d lost", pk)
		}
		if want, _ := tbl.routeFor(tbl.store(ref).Row(ref.Row)); ref.Part != want {
			t.Fatalf("key %d in partition %d, its year routes to %d", pk, ref.Part, want)
		}
	}
}

// TestOnlineMergeRejectsOverlap covers the mutual exclusion between merges
// on one partition.
func TestOnlineMergeRejectsOverlap(t *testing.T) {
	db, _ := onlineEnv(t, 4)
	om, err := db.StartOnlineMerge("Header", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.StartOnlineMerge("Header", 0, false); err == nil {
		t.Fatal("second online merge on the same partition accepted")
	}
	om.Abort()
	if _, err := db.MergeOnline("Header", 0, false); err != nil {
		t.Fatalf("merge after abort: %v", err)
	}
}

// TestMergeTablesOnlineAbortAll crashes the combined swap: every table of
// the group must roll back and stay re-mergeable.
func TestMergeTablesOnlineAbortAll(t *testing.T) {
	db := Open()
	var tbls []*Table
	for _, name := range []string{"A", "B"} {
		s := headerSchema()
		s.Name = name
		tbl, err := db.Create(s)
		if err != nil {
			t.Fatal(err)
		}
		insertRows(t, db, tbl, 1, 6)
		tbls = append(tbls, tbl)
	}
	wants := [][]string{visibleRows(db, tbls[0]), visibleRows(db, tbls[1])}

	f := NewFaults(1)
	f.Set(FaultMergeBeforeSwap, FaultSpec{Prob: 1, Crash: true})
	db.SetFaults(f)
	if err := db.MergeTablesOnline(false, "A", "B"); !errors.Is(err, ErrInjected) {
		t.Fatalf("MergeTablesOnline error = %v, want injected fault", err)
	}
	for i, tbl := range tbls {
		p := tbl.Partition(0)
		if p.Delta2 != nil || p.merge != nil {
			t.Fatalf("table %s: merge state leaked after group abort", tbl.Name())
		}
		if got := visibleRows(db, tbl); !equalRows(got, wants[i]) {
			t.Fatalf("table %s changed by aborted group merge", tbl.Name())
		}
	}
	db.SetFaults(nil)
	if err := db.MergeTablesOnline(false, "A", "B"); err != nil {
		t.Fatal(err)
	}
	for i, tbl := range tbls {
		if got := visibleRows(db, tbl); !equalRows(got, wants[i]) {
			t.Fatalf("table %s changed by group merge", tbl.Name())
		}
		if tbl.Partition(0).Delta.Rows() != 0 {
			t.Fatalf("table %s delta not emptied", tbl.Name())
		}
	}
}

// TestAgeOnlineCrash rolls back an online aging and checks the boundary and
// data are untouched, then ages for real.
func TestAgeOnlineCrash(t *testing.T) {
	db := Open()
	s := Schema{
		Name: "H",
		Cols: []ColumnDef{
			{Name: "ID", Kind: column.Int64},
			{Name: "Tid", Kind: column.Int64},
		},
		PK: "ID",
	}
	tbl, err := db.CreatePartitioned(s, "Tid", []RangePartition{
		{Name: "cold", Lo: 0, Hi: 5},
		{Name: "hot", Lo: 5, Hi: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		tx := db.Txns().Begin()
		if _, err := tbl.Insert(tx, []column.Value{column.IntV(i), column.IntV(i)}); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	if _, err := db.MergeOnline("H", 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := db.MergeOnline("H", 1, false); err != nil {
		t.Fatal(err)
	}
	want := visibleRows(db, tbl)

	f := NewFaults(1)
	f.Set(FaultMergeBeforeSwap, FaultSpec{Prob: 1, Crash: true})
	db.SetFaults(f)
	if err := db.AgeOnline("H", 8); !errors.Is(err, ErrInjected) {
		t.Fatalf("AgeOnline error = %v, want injected fault", err)
	}
	if hi := tbl.Partition(0).Hi; hi != 5 {
		t.Fatalf("aborted aging moved the boundary to %d", hi)
	}
	if got := visibleRows(db, tbl); !equalRows(got, want) {
		t.Fatalf("aborted aging changed data:\n got %v\nwant %v", got, want)
	}

	db.SetFaults(nil)
	if err := db.AgeOnline("H", 8); err != nil {
		t.Fatal(err)
	}
	if hi := tbl.Partition(0).Hi; hi != 8 {
		t.Fatalf("aging boundary = %d, want 8", hi)
	}
	if got := visibleRows(db, tbl); !equalRows(got, want) {
		t.Fatalf("aging changed data:\n got %v\nwant %v", got, want)
	}
	if cold := tbl.Partition(0).Main.Rows(); cold != 7 {
		t.Fatalf("cold partition has %d rows, want 7 (tid 1..7)", cold)
	}
	for i := int64(1); i <= 10; i++ {
		ref, ok := tbl.LookupPK(i)
		if !ok || tbl.Get(ref, 0).I != i {
			t.Fatalf("pk %d broken after aging", i)
		}
	}
}
