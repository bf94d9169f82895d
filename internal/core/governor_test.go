package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/table"
	"aggcache/internal/txn"
)

// governedRows returns the merge price of the Header+Item group (main +
// delta rows, counting the rows written during an online merge) and its
// delta rows alone.
func governedRows(e *env) (price, delta int64) {
	for _, name := range []string{"Header", "Item"} {
		for _, p := range e.db.MustTable(name).Partitions() {
			n := int64(p.Delta.Rows())
			if p.Delta2 != nil {
				n += int64(p.Delta2.Rows())
			}
			price += int64(p.Main.Rows()) + n
			delta += n
		}
	}
	return price, delta
}

// TestGovernorCostRule drives the merge rule tick by tick with no clock.
// Each round writes one object and reads the header count once, so the
// read misses the memo and compensates a delta one header longer than the
// last. The governor must hold while the work since its baseline is below
// the price and merge on the first tick where it is not; a loop of memo
// hits adds no work and never merges; and an external merge resets the
// baseline just as the governor's own merge does.
func TestGovernorCostRule(t *testing.T) {
	e := newEnv(t, Config{Metrics: obs.NewRegistry()})
	for i := 0; i < 4; i++ {
		e.insertObject(t, 2013, 1, 2)
	}
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	g := NewGovernor(e.mgr, GovernorConfig{Tables: []string{"Header", "Item"}})
	q := headerOnlyQuery()

	var work int64 // delta tuples the reads compensated since the baseline
	read := func() ExecInfo {
		t.Helper()
		_, info, err := e.mgr.Execute(q, CachedFullPruning)
		if err != nil {
			t.Fatal(err)
		}
		work += info.DeltaTuples
		return info
	}
	tick := func() bool {
		t.Helper()
		price, _ := governedRows(e)
		merged, err := g.Tick()
		if err != nil {
			t.Fatal(err)
		}
		snap := g.Snapshot()
		if !merged && (snap.Work != work || snap.Price != price) {
			t.Fatalf("snapshot work %d price %d, want %d and %d", snap.Work, snap.Price, work, price)
		}
		return merged
	}
	// round writes, reads and ticks; it fails unless the tick merged
	// exactly when the work had reached the price.
	round := func() bool {
		t.Helper()
		e.insertObject(t, 2014, 3)
		if info := read(); info.MemoHit || info.DeltaTuples == 0 {
			t.Fatalf("read after a write: %+v, want a compensating memo miss", info)
		}
		price, delta := governedRows(e)
		due := work >= price
		merged := tick()
		if merged != due {
			t.Fatalf("work %d price %d delta rows %d: merged=%v, want %v", work, price, delta, merged, due)
		}
		if merged {
			work = 0
		}
		return merged
	}

	// untilMerged runs rounds until one merges, counting the rounds below
	// the price and those of them whose work had already passed the delta
	// rows.
	untilMerged := func() (below, pastDelta int) {
		t.Helper()
		for ; !round(); below++ {
			if _, delta := governedRows(e); work >= delta {
				pastDelta++
			}
			if below > 100 {
				t.Fatal("no merge after 100 rounds")
			}
		}
		return below, pastDelta
	}

	// The rule: below the price nothing happens; the first tick at or past
	// it merges and empties the deltas. Some round must sit between the
	// delta rows and the price, or a trigger on delta rows would pass too.
	if below, pastDelta := untilMerged(); below == 0 || pastDelta == 0 {
		t.Fatalf("%d rounds below price, %d of them past the delta rows; the rule went untested", below, pastDelta)
	}
	if _, delta := governedRows(e); delta != 0 {
		t.Fatalf("%d delta rows after the governed merge", delta)
	}
	if snap := g.Snapshot(); snap.Merges != 1 || snap.LastReason != GovMerged {
		t.Fatalf("after the merge: %+v", snap)
	}

	// The merge reset the baseline, and memo hits add nothing: a write
	// before the next tick, then a read-only loop, never merges. Nor do
	// uncached reads, whose joins a merge would not shorten.
	round()
	for i := 0; i < 50; i++ {
		if info := read(); !info.MemoHit || info.DeltaTuples != 0 {
			t.Fatalf("repeat read %d: %+v, want a memo hit with no delta work", i, info)
		}
		before := e.mgr.DeltaWork()
		if _, _, err := e.mgr.Execute(q, Uncached); err != nil {
			t.Fatal(err)
		}
		if after := e.mgr.DeltaWork(); after != before {
			t.Fatalf("uncached read %d added %d work", i, after-before)
		}
		if tick() {
			t.Fatalf("repeat read %d: memo hits merged", i)
		}
	}

	// An external merge resets the baseline: work accrued before it must
	// not count toward the next merge.
	for price, _ := governedRows(e); work*2 < price; price, _ = governedRows(e) {
		if round() {
			t.Fatal("merged while accruing half the price")
		}
	}
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	work = 0
	if tick() {
		t.Fatal("merged with empty deltas")
	}
	if snap := g.Snapshot(); snap.LastReason != GovDeltasEmpty || snap.Work != 0 {
		t.Fatalf("after an external merge: %+v", snap)
	}
	untilMerged()
	if snap := g.Snapshot(); snap.Merges != 2 {
		t.Fatalf("merges = %d, want 2", snap.Merges)
	}

	// A merge already in flight defers the governor even once work has
	// paid; once it finishes, the rule applies again.
	om, err := e.db.StartOnlineMerge("Item", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for paid := false; !paid; {
		e.insertObject(t, 2015, 4)
		read()
		price, _ := governedRows(e)
		paid = work >= price
	}
	if tick() || g.Snapshot().LastReason != GovMergeActive {
		t.Fatalf("tick during a merge: %+v, want deferred", g.Snapshot())
	}
	if err := om.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := om.Finish(); err != nil {
		t.Fatal(err)
	}
	untilMerged()
}

// TestGovernorPriceAcrossOnlineMerge: the price counts the rows written
// while a governed table merges online, so a tick right after the merge
// finishes, with no write in between, sees the price the last tick saw.
func TestGovernorPriceAcrossOnlineMerge(t *testing.T) {
	e := newEnv(t, Config{Metrics: obs.NewRegistry()})
	for i := 0; i < 4; i++ {
		e.insertObject(t, 2013, 1, 2)
	}
	g := NewGovernor(e.mgr, GovernorConfig{Tables: []string{"Header", "Item"}})
	om, err := e.db.StartOnlineMerge("Item", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.insertObject(t, 2014, 3, 4)
	}
	if merged, err := g.Tick(); merged || err != nil {
		t.Fatalf("tick during a merge: merged=%v err=%v", merged, err)
	}
	during := g.Snapshot()
	if price, _ := governedRows(e); during.LastReason != GovMergeActive || during.Price != price {
		t.Fatalf("tick during a merge: %+v, want merge-active at price %d", during, price)
	}
	if err := om.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := om.Finish(); err != nil {
		t.Fatal(err)
	}
	if merged, err := g.Tick(); merged || err != nil {
		t.Fatalf("tick after the merge: merged=%v err=%v", merged, err)
	}
	if after := g.Snapshot(); after.Price != during.Price {
		t.Fatalf("price %d during the merge, %d right after it with no write", during.Price, after.Price)
	}
}

// TestGovernorMergeFailure: a failed merge is counted and reported, and it
// resets the baseline like a merge would, so the governor retries only once
// compensation has paid for another attempt rather than on every tick.
func TestGovernorMergeFailure(t *testing.T) {
	e := newEnv(t, Config{Metrics: obs.NewRegistry()})
	for paid := false; !paid; {
		e.insertObject(t, 2013, 1)
		if _, _, err := e.mgr.Execute(headerOnlyQuery(), CachedFullPruning); err != nil {
			t.Fatal(err)
		}
		price, _ := governedRows(e)
		paid = e.mgr.DeltaWork() >= price
	}
	g := NewGovernor(e.mgr, GovernorConfig{Tables: []string{"Header", "Item"}})
	f := table.NewFaults(1)
	f.Set(table.FaultMergeBuild, table.FaultSpec{Prob: 1, Crash: true})
	e.db.SetFaults(f)
	if merged, err := g.Tick(); merged || !errors.Is(err, table.ErrInjected) {
		t.Fatalf("tick with a crashing merge: merged=%v err=%v", merged, err)
	}
	snap := g.Snapshot()
	if snap.Merges != 0 || snap.Failures != 1 || snap.LastReason != GovMergeFailed || snap.LastError == "" {
		t.Fatalf("after a failed merge: %+v", snap)
	}
	e.db.SetFaults(nil)
	if merged, err := g.Tick(); merged || err != nil {
		t.Fatalf("tick right after a failed merge: merged=%v err=%v, want no retry", merged, err)
	}
	if snap := g.Snapshot(); snap.Work != 0 || snap.LastReason != GovBelowPrice || snap.Failures != 1 {
		t.Fatalf("after the retry tick: %+v", snap)
	}
}

// TestGovernorMergesHotColdAtOneSnapshot: on a hot/cold Header+Item with
// delta rows in all four partitions, one merging tick drains every governed
// delta as one group. All four members freeze at one snapshot (their
// table.merge_online_start events share snap_high) and swap in one critical
// section (every start precedes every swap), and the cached join stays a
// maintained hit.
func TestGovernorMergesHotColdAtOneSnapshot(t *testing.T) {
	e := newEnvHotCold(t)
	var buf bytes.Buffer
	e.db.SetEvents(obs.NewEventLog(&buf))
	q := joinQuery()
	for paid, i := false, 0; !paid; i++ {
		if i == 200 {
			t.Fatal("compensation work never reached the merge price")
		}
		e.insertObjectTid(t, 5, 2011, 3)
		e.insertObject(t, 2015, 4)
		for _, qq := range []*query.Query{q, headerOnlyQuery()} {
			if _, _, err := e.mgr.Execute(qq, CachedFullPruning); err != nil {
				t.Fatal(err)
			}
		}
		price, _ := governedRows(e)
		paid = e.mgr.DeltaWork() >= price
	}
	g := NewGovernor(e.mgr, GovernorConfig{Tables: []string{"Header", "Item"}})
	if merged, err := g.Tick(); !merged || err != nil {
		t.Fatalf("tick: merged=%v err=%v, want a merge", merged, err)
	}
	if _, delta := governedRows(e); delta != 0 {
		t.Fatalf("%d delta rows after one merging tick", delta)
	}
	started := map[string]bool{}
	snaps := map[any]bool{}
	swaps := 0
	for _, ev := range parseEvents(t, &buf) {
		switch ev["msg"] {
		case "table.merge_online_start":
			if swaps > 0 {
				t.Fatalf("%v/%v started after a swap", ev["table"], ev["part"])
			}
			started[fmt.Sprintf("%v/%v", ev["table"], ev["part"])] = true
			snaps[ev["snap_high"]] = true
		case "table.merge_online_swap":
			swaps++
		}
	}
	if len(started) != 4 || swaps != 4 || len(snaps) != 1 {
		t.Fatalf("members %v swapped %d times at snapshots %v; want four at one", started, swaps, snaps)
	}
	if info := assertMatchesUncached(t, e, q, CachedFullPruning); !info.CacheHit || info.Rebuilt {
		t.Fatalf("after the merge: %+v, want a maintained cache hit", info)
	}
}

// blockingHook holds the first merge fold it sees until released.
type blockingHook struct {
	once             sync.Once
	entered, release chan struct{}
}

func (h *blockingHook) FoldOnline(*table.DB, *table.Table, int, txn.Snapshot) {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
}
func (h *blockingHook) SwapOnline(*table.DB, *table.Table, int, txn.Snapshot) {}
func (h *blockingHook) AbortOnline(*table.DB, *table.Table, int)              {}

// TestGovernorSnapshotDuringMerge: Snapshot answers while the governor's
// merge is held mid-flight, reporting the merge as running.
func TestGovernorSnapshotDuringMerge(t *testing.T) {
	e := newEnv(t, Config{Metrics: obs.NewRegistry()})
	// Write and read until the compensation work has paid for a merge.
	for paid := false; !paid; {
		e.insertObject(t, 2013, 1)
		if _, _, err := e.mgr.Execute(headerOnlyQuery(), CachedFullPruning); err != nil {
			t.Fatal(err)
		}
		price, _ := governedRows(e)
		paid = e.mgr.DeltaWork() >= price
	}
	hook := &blockingHook{entered: make(chan struct{}), release: make(chan struct{})}
	e.db.RegisterMergeHook(hook)
	g := NewGovernor(e.mgr, GovernorConfig{Tables: []string{"Header", "Item"}})

	ticked := make(chan bool)
	go func() {
		merged, err := g.Tick()
		if err != nil {
			t.Error(err)
		}
		ticked <- merged
	}()
	select {
	case <-hook.entered:
	case merged := <-ticked:
		t.Fatalf("the tick returned (merged=%v) without reaching the merge", merged)
	}
	snapped := make(chan GovernorSnapshot)
	go func() { snapped <- g.Snapshot() }()
	select {
	case snap := <-snapped:
		if snap.LastReason != GovMerging || snap.Ticks != 1 {
			t.Errorf("snapshot mid-merge: %+v, want a running merge", snap)
		}
	case <-time.After(10 * time.Second):
		t.Error("Snapshot blocked behind the governor's merge")
	}
	close(hook.release)
	if !<-ticked {
		t.Fatal("the tick did not merge")
	}
}

// TestGovernorStartStop: the background loop starts once, ticks once per
// tick of its (injected) tick source, stops cleanly, and both Start and
// Stop are idempotent.
func TestGovernorStartStop(t *testing.T) {
	e := newEnv(t, Config{Metrics: obs.NewRegistry()})
	g := NewGovernor(e.mgr, GovernorConfig{Tables: []string{"Header", "Item"}})
	ticks := make(chan time.Time)
	g.tickSrc = ticks
	g.Start()
	g.Start() // no-op
	for i := 0; i < 3; i++ {
		ticks <- time.Time{}
	}
	g.Stop()
	g.Stop() // no-op
	if got := g.Snapshot().Ticks; got != 3 {
		t.Fatalf("3 ticks ran %d governor ticks", got)
	}
	select {
	case ticks <- time.Time{}:
		t.Fatal("a control loop still receives ticks after Stop")
	default:
	}
}
