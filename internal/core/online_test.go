package core

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/query"
	"aggcache/internal/table"
	"aggcache/internal/txn"
)

// renderResult renders an aggregate result byte-comparably; Rows() sorts by
// group key, so equal results render identically.
func renderResult(a *query.AggTable) string {
	return fmt.Sprintf("%+v", a.Rows())
}

// TestOnlineMergeMaintainsEntries checks the staged maintenance protocol
// end to end: entries admitted before an online merge serve correct results
// during the merge (frozen, transiently compensated) and after the swap
// (staged fold applied), without ever being rebuilt.
func TestOnlineMergeMaintainsEntries(t *testing.T) {
	e := newEnv(t, Config{})
	for i := 0; i < 6; i++ {
		e.insertObject(t, 2013+int64(i%3), 10, 20, 30)
	}
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	e.insertObject(t, 2014, 5, 15) // delta rows for the online merge to fold

	q := joinQuery()
	single := headerOnlyQuery()
	for _, qq := range []*query.Query{q, single} {
		if _, _, err := e.mgr.Execute(qq, CachedFullPruning); err != nil {
			t.Fatal(err)
		}
	}
	entry, ok := e.mgr.Entry(q)
	if !ok {
		t.Fatal("join entry not admitted")
	}
	maintBefore := entry.Metrics.Maintenances

	// Stage a merge on Item and hold it open across queries and writes.
	om, err := e.db.StartOnlineMerge("Item", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := om.Build(); err != nil {
		t.Fatal(err)
	}

	// Mid-merge: new writes coalesce in delta2, an update invalidates a
	// frozen row. Every strategy must still match the uncached oracle.
	e.insertObject(t, 2015, 7)
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Item").Update(tx, 1, map[string]column.Value{"Price": column.FloatV(99)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	for _, strat := range Strategies() {
		info := assertMatchesUncached(t, e, q, strat)
		if strat != Uncached && info.Rebuilt {
			t.Fatalf("mid-merge execution rebuilt the entry (strategy %v)", strat)
		}
	}
	assertMatchesUncached(t, e, single, CachedFullPruning)

	if _, err := om.Finish(); err != nil {
		t.Fatal(err)
	}

	// Post-swap: the staged fold was applied, the entry is maintained, not
	// stale, and still correct.
	for _, strat := range Strategies() {
		info := assertMatchesUncached(t, e, q, strat)
		if strat != Uncached && (info.Rebuilt || !info.CacheHit) {
			t.Fatalf("post-merge execution: %+v, want maintained cache hit", info)
		}
	}
	entry, _ = e.mgr.Entry(q)
	if entry.Stale {
		t.Fatal("entry stale after online merge")
	}
	if entry.Metrics.Maintenances <= maintBefore {
		t.Fatal("online merge did not count as maintenance")
	}
}

// TestOnlineMergeGroupMaintainsEntries is the same protocol through
// MergeTablesOnline: all three tables freeze at one snapshot, the folds
// telescope across the group (delta×delta cross terms), and the combined
// swap applies them together.
func TestOnlineMergeGroupMaintainsEntries(t *testing.T) {
	e := newEnv(t, Config{})
	for i := 0; i < 5; i++ {
		e.insertObject(t, 2013+int64(i%2), 10, 20)
	}
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	// Fresh deltas on BOTH joined tables: the group fold must cover
	// delta(Header)×delta(Item) exactly once.
	e.insertObject(t, 2014, 5, 15, 25)
	e.insertObject(t, 2015, 40)

	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	info := assertMatchesUncached(t, e, q, CachedFullPruning)
	if info.Rebuilt || !info.CacheHit {
		t.Fatalf("post group-merge execution: %+v, want maintained cache hit", info)
	}
}

// TestOnlineMergeInterleavedPartitionFolds merges all four partitions of a
// hot/cold Header+Item at one snapshot, built in the interleaved order
// Header/0, Item/0, Header/1, Item/1. Each delta×delta cross term must land
// in exactly one fold: the one of whichever of its two stores folds later.
// Counting a table as folded once any of its partitions has would put
// Header/1's delta joined with Item/1's into two folds.
func TestOnlineMergeInterleavedPartitionFolds(t *testing.T) {
	e := newEnvHotCold(t)
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	e.insertObjectTid(t, 5, 2011, 6, 9)
	e.insertObjectTid(t, 6, 2012, 2)
	e.insertObject(t, 2015, 8, 1)
	e.insertObject(t, 2016, 4)
	members := []struct {
		table string
		part  int
	}{{"Header", 0}, {"Item", 0}, {"Header", 1}, {"Item", 1}}
	var oms []*table.OnlineMerge
	for _, m := range members {
		if rows := e.db.MustTable(m.table).Partition(m.part).Delta.Rows(); rows == 0 {
			t.Fatalf("%s/%d has an empty delta", m.table, m.part)
		}
		om, err := e.db.StartOnlineMerge(m.table, m.part, false)
		if err != nil {
			t.Fatal(err)
		}
		oms = append(oms, om)
	}
	for _, om := range oms {
		if err := om.Build(); err != nil {
			t.Fatal(err)
		}
	}
	for _, om := range oms {
		if _, err := om.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if info := assertMatchesUncached(t, e, q, CachedFullPruning); !info.CacheHit || info.Rebuilt {
		t.Fatalf("after the merges: %+v, want a maintained cache hit", info)
	}
}

// TestOnlineMergeFreezesEntry pins down the freeze mechanics: while a merge
// is in flight, query-time main compensation must not advance the entry
// past the merge baseline (it applies to the served clone only).
func TestOnlineMergeFreezesEntry(t *testing.T) {
	e := newEnv(t, Config{})
	for i := 0; i < 4; i++ {
		e.insertObject(t, 2013, 10)
	}
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	q := headerOnlyQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	entry, _ := e.mgr.Entry(q)

	om, err := e.db.StartOnlineMerge("Header", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := om.Build(); err != nil {
		t.Fatal(err)
	}
	frozenAt := entry.SnapHigh
	frozenDirty := entry.Metrics.DirtyCounter

	// Invalidate a frozen main row mid-merge.
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Header").Delete(tx, 2); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	info := assertMatchesUncached(t, e, q, CachedFullPruning)
	if info.MainCompensated == 0 {
		t.Fatal("mid-merge hit did not compensate the invalidated row")
	}
	if entry.SnapHigh != frozenAt {
		t.Fatalf("entry advanced past the merge baseline: %d -> %d", frozenAt, entry.SnapHigh)
	}
	if entry.Metrics.DirtyCounter != frozenDirty {
		t.Fatal("transient compensation mutated the dirty counter")
	}

	if _, err := om.Finish(); err != nil {
		t.Fatal(err)
	}
	// After the swap the compensation persists on first access.
	info = assertMatchesUncached(t, e, q, CachedFullPruning)
	if !info.CacheHit || info.Rebuilt {
		t.Fatalf("post-merge execution: %+v, want cache hit", info)
	}
	if entry.SnapHigh <= frozenAt {
		t.Fatal("entry baseline did not advance after the swap")
	}
}

// TestOnlineMergeAbortKeepsCacheConsistent aborts a staged merge after the
// fold and checks entries keep serving correct results — the rollback
// leaves the observable store layout unchanged, so settled entries stay
// valid and only the staged folds are discarded.
func TestOnlineMergeAbortKeepsCacheConsistent(t *testing.T) {
	e := newEnv(t, Config{})
	for i := 0; i < 4; i++ {
		e.insertObject(t, 2013+int64(i%2), 10, 20)
	}
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	e.insertObject(t, 2014, 5)

	om, err := e.db.StartOnlineMerge("Item", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := om.Build(); err != nil {
		t.Fatal(err)
	}
	e.insertObject(t, 2015, 8) // delta2 rows that fold back on abort
	om.Abort()

	assertMatchesUncached(t, e, q, CachedFullPruning)
	// And the partition merges cleanly afterwards, cache still right.
	if _, err := e.db.MergeOnline("Item", 0, false); err != nil {
		t.Fatal(err)
	}
	assertMatchesUncached(t, e, q, CachedFullPruning)
}

// TestEntryBuiltDuringOnlineMerge admits an entry while a merge is running:
// it serves correct results during the merge, is invalidated by the swap
// (its visibility describes the pre-swap layout), and rebuilds cleanly.
func TestEntryBuiltDuringOnlineMerge(t *testing.T) {
	e := newEnv(t, Config{})
	for i := 0; i < 4; i++ {
		e.insertObject(t, 2013, 10)
	}
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	e.insertObject(t, 2014, 5)

	om, err := e.db.StartOnlineMerge("Header", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := om.Build(); err != nil {
		t.Fatal(err)
	}
	q := headerOnlyQuery()
	info := assertMatchesUncached(t, e, q, CachedFullPruning)
	if !info.Admitted {
		t.Fatalf("mid-merge build: %+v, want admission", info)
	}
	entry, _ := e.mgr.Entry(q)
	if !entry.mergedDirty {
		t.Fatal("entry built during merge not flagged")
	}
	assertMatchesUncached(t, e, q, CachedFullPruning) // hit while dirty

	if _, err := om.Finish(); err != nil {
		t.Fatal(err)
	}
	info = assertMatchesUncached(t, e, q, CachedFullPruning)
	if !info.Rebuilt {
		t.Fatalf("post-swap execution: %+v, want rebuild of merge-dirty entry", info)
	}
	assertMatchesUncached(t, e, q, CachedFullPruning)
}

// TestPinnedSnapshotAcrossOnlineMerge pins a read snapshot, mutates and
// merges, and checks ExecuteAt returns byte-identical results for the
// pinned snapshot before and after the swap — the version-retention
// guarantee for long-running readers, whichever merge entry point runs.
func TestPinnedSnapshotAcrossOnlineMerge(t *testing.T) {
	merges := map[string]func(e *env) error{
		"grouped": func(e *env) error {
			return e.db.MergeTablesOnline(false, "Header", "Item")
		},
		"one-partition": func(e *env) error {
			_, err := e.db.MergeOnline("Item", 0, false)
			return err
		},
	}
	for name, merge := range merges {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, Config{})
			for i := 0; i < 5; i++ {
				e.insertObject(t, 2013+int64(i%2), 10, 20)
			}
			if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
				t.Fatal(err)
			}
			q := joinQuery()
			if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
				t.Fatal(err)
			}

			snap, release := e.mgr.PinSnapshot()
			defer release()
			var before []string
			for _, strat := range Strategies() {
				res, _, err := e.mgr.ExecuteAt(q, snap, strat)
				if err != nil {
					t.Fatal(err)
				}
				before = append(before, renderResult(res))
			}

			// Mutate: deletes invalidate rows the pinned snapshot still sees.
			tx := e.db.Txns().Begin()
			if err := e.db.MustTable("Item").Delete(tx, 1); err != nil {
				t.Fatal(err)
			}
			if err := e.db.MustTable("Item").Update(tx, 2, map[string]column.Value{"Price": column.FloatV(1000)}); err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			e.insertObject(t, 2014, 50)
			if err := merge(e); err != nil {
				t.Fatal(err)
			}

			for i, strat := range Strategies() {
				res, _, err := e.mgr.ExecuteAt(q, snap, strat)
				if err != nil {
					t.Fatal(err)
				}
				if got := renderResult(res); got != before[i] {
					t.Fatalf("pinned snapshot result changed across the merge (strategy %v):\n got %s\nwant %s", strat, got, before[i])
				}
			}
		})
	}
}

// soakIters scales the concurrency soak via AGGCACHE_SOAK_ITERS (CI's soak
// job raises it; the default keeps the in-tree run fast).
func soakIters(def int) int {
	if s := os.Getenv("AGGCACHE_SOAK_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestOnlineMergeSoak runs continuous online merges against concurrent
// cached queries and writers; run with -race. Readers assert snapshot
// consistency (every committed object writes one header + one item, so a
// consistent COUNT over headers is monotone per reader).
func TestOnlineMergeSoak(t *testing.T) {
	runOnlineMergeSoak(t, Config{})
}

// The same soak with the subjoin pool wide open: FoldOnline, transient
// compensation, and the executor's workers all race each other.
func TestOnlineMergeSoakParallelWorkers(t *testing.T) {
	runOnlineMergeSoak(t, Config{Workers: 4})
}

func runOnlineMergeSoak(t *testing.T, cfg Config) {
	e := newEnv(t, cfg)
	for i := 0; i < 8; i++ {
		e.insertObject(t, 2013+int64(i%3), 10, 20)
	}
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	q := joinQuery()
	single := headerOnlyQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.mgr.Execute(single, CachedFullPruning); err != nil {
		t.Fatal(err)
	}

	merges := soakIters(12)
	const readers = 3
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			strat := Strategies()[1+r%3] // the cached strategies
			var lastCount int64 = -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := e.mgr.Execute(q, strat); err != nil {
					errs <- err
					return
				}
				res, _, err := e.mgr.Execute(single, strat)
				if err != nil {
					errs <- err
					return
				}
				var n int64
				for _, row := range res.Rows() {
					n += row.Count
				}
				if n < lastCount {
					errs <- fmt.Errorf("header count went backwards: %d -> %d", lastCount, n)
					return
				}
				lastCount = n
			}
		}(r)
	}

	wg.Add(1)
	go func() { // writer: inserts, updates, deletes under the writer lock
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.db.Lock()
			hid := e.nextHdr
			e.nextHdr++
			tx := e.db.Txns().Begin()
			_, err := e.db.MustTable("Header").Insert(tx, []column.Value{
				column.IntV(hid), column.IntV(2013 + hid%3), column.IntV(int64(tx.ID())),
			})
			if err == nil {
				iid := e.nextItem
				e.nextItem++
				vals := []column.Value{
					column.IntV(iid), column.IntV(hid), column.IntV(hid % 3),
					column.FloatV(float64(10 * hid)), column.IntV(0),
				}
				if err = e.reg.FillChildTIDs("Item", vals); err == nil {
					_, err = e.db.MustTable("Item").Insert(tx, vals)
				}
			}
			if err == nil && i%7 == 3 && hid > 4 {
				err = e.db.MustTable("Item").Update(tx, int64(i%3+1), map[string]column.Value{
					"Price": column.FloatV(float64(i)),
				})
			}
			if err != nil {
				tx.Abort()
				e.db.Unlock()
				errs <- err
				return
			}
			tx.Commit()
			e.db.Unlock()
			i++
		}
	}()

	for i := 0; i < merges; i++ {
		var err error
		switch i % 3 {
		case 0:
			err = e.db.MergeTablesOnline(false, "Header", "Item")
		case 1:
			_, err = e.db.MergeOnline("Header", 0, false)
		default:
			_, err = e.db.MergeOnline("Item", 0, false)
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

	// Quiesced: every strategy agrees with the oracle.
	for _, strat := range Strategies() {
		assertMatchesUncached(t, e, q, strat)
		assertMatchesUncached(t, e, single, strat)
	}
}

// TestOnlineMergeMonotoneTIDVisibility checks commit-watermark monotonicity
// across swaps at the txn layer: snapshots taken in order see non-shrinking
// watermarks even while merges run.
func TestOnlineMergeMonotoneTIDVisibility(t *testing.T) {
	e := newEnv(t, Config{})
	e.insertObject(t, 2013, 10)
	var last txn.TID
	for i := 0; i < 5; i++ {
		snap := e.db.Txns().ReadSnapshot()
		if snap.High < last {
			t.Fatalf("watermark shrank: %d -> %d", last, snap.High)
		}
		last = snap.High
		e.insertObject(t, 2013, 5)
		if _, err := e.db.MergeOnline("Item", 0, false); err != nil {
			t.Fatal(err)
		}
	}
}
