package core

import (
	"testing"
	"time"

	"aggcache/internal/obs"
)

// tickAt drives a deterministic governor clock from a fixed epoch.
func tickAt(g *Governor, t *testing.T, offset time.Duration) (GovernorAction, error) {
	t.Helper()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return g.Tick(base.Add(offset))
}

// TestGovernorDeltaRowsHysteresis: the delta-rows trigger fires on crossing
// the high-water mark, empties the deltas via an online group merge, and
// does not re-fire until the deltas cross the low-water mark again (which
// the merge itself causes) AND the cooldown has passed.
func TestGovernorDeltaRowsHysteresis(t *testing.T) {
	e := newEnv(t, Config{Metrics: obs.NewRegistry()})
	g := NewGovernor(e.mgr, GovernorConfig{
		Tables:        []string{"Header", "Item"},
		DeltaRowsHigh: 4,
		Cooldown:      time.Second,
	})

	// Below threshold: 1 header + 2 items = 3 delta rows.
	e.insertObject(t, 2013, 10, 20)
	if act, err := tickAt(g, t, 0); err != nil || act != GovNone {
		t.Fatalf("tick below threshold: action %q err %v, want none", act, err)
	}

	// Cross the high-water mark: merge fires and empties the deltas.
	e.insertObject(t, 2014, 5, 6)
	if act, err := tickAt(g, t, 100*time.Millisecond); err != nil || act != GovMerge {
		t.Fatalf("tick above threshold: action %q err %v, want merge", act, err)
	}
	if n := e.db.MustTable("Header").DeltaRows(); n != 0 {
		t.Fatalf("Header delta rows after governed merge = %d, want 0", n)
	}
	if n := e.db.MustTable("Item").DeltaRows(); n != 0 {
		t.Fatalf("Item delta rows after governed merge = %d, want 0", n)
	}

	// A tick sees the drained deltas below the low-water mark and re-arms.
	if act, err := tickAt(g, t, 200*time.Millisecond); err != nil || act != GovNone {
		t.Fatalf("tick on drained deltas: action %q err %v, want none", act, err)
	}
	// Refill past the threshold inside the cooldown: no action.
	e.insertObject(t, 2015, 1, 2)
	e.insertObject(t, 2015, 3, 4)
	if act, err := tickAt(g, t, 600*time.Millisecond); err != nil || act != GovNone {
		t.Fatalf("tick inside cooldown: action %q err %v, want none", act, err)
	}
	// Past the cooldown the re-armed trigger fires again.
	if act, err := tickAt(g, t, 1200*time.Millisecond); err != nil || act != GovMerge {
		t.Fatalf("tick after cooldown: action %q err %v, want merge", act, err)
	}

	snap := g.Snapshot()
	if snap.Merges != 2 || snap.Ticks != 5 {
		t.Fatalf("snapshot merges=%d ticks=%d, want 2 and 5", snap.Merges, snap.Ticks)
	}
	if snap.LastReason != "delta-rows" {
		t.Fatalf("last reason = %q, want delta-rows", snap.LastReason)
	}
}

// TestGovernorRotatesWindows: ticks advance the manager's rolling windows
// on the configured cadence, not on every tick.
func TestGovernorRotatesWindows(t *testing.T) {
	e := newEnv(t, Config{Metrics: obs.NewRegistry(), SLO: obs.NewSLO(obs.SLOConfig{})})
	g := NewGovernor(e.mgr, GovernorConfig{Tables: []string{"Header", "Item"}, Rotate: time.Second})

	tickAt(g, t, 0) // first tick always rotates
	for ms := 100; ms < 1000; ms += 100 {
		tickAt(g, t, time.Duration(ms)*time.Millisecond)
	}
	if got := e.mgr.QueryWindow().Rotations(); got != 1 {
		t.Fatalf("rotations after 1s of ticks = %d, want 1", got)
	}
	tickAt(g, t, 1100*time.Millisecond)
	if got := e.mgr.QueryWindow().Rotations(); got != 2 {
		t.Fatalf("rotations after rotate cadence = %d, want 2", got)
	}
}

// TestGovernorOverloadMerge: a high short-window SLO burn marks the engine
// overloaded and, with non-trivial deltas, triggers a relief merge.
func TestGovernorOverloadMerge(t *testing.T) {
	slo := obs.NewSLO(obs.SLOConfig{Target: time.Millisecond, Slots: 8, ShortSlots: 2})
	e := newEnv(t, Config{Metrics: obs.NewRegistry(), SLO: slo})
	g := NewGovernor(e.mgr, GovernorConfig{Tables: []string{"Header", "Item"}})

	e.insertObject(t, 2013, 10, 20)
	for i := 0; i < 10; i++ {
		slo.Record(5*time.Millisecond, false) // all bad: burn far above BurnHigh
	}
	act, err := tickAt(g, t, 0)
	if err != nil || act != GovMerge {
		t.Fatalf("overloaded tick: action %q err %v, want merge", act, err)
	}
	ov := g.Overload()
	if !ov.Overloaded || ov.BurnShort < DefaultBurnHigh {
		t.Fatalf("overload signal = %+v, want overloaded with burn >= %v", ov, DefaultBurnHigh)
	}
	if g.Snapshot().LastReason != "slo-burn" {
		t.Fatalf("last reason = %q, want slo-burn", g.Snapshot().LastReason)
	}
}

// TestGovernorAgesHotCold: with aging enabled, empty deltas, and a hot main
// past the threshold, the governor moves both tables' boundaries to the
// same split (co-partitioned objects stay together).
func TestGovernorAgesHotCold(t *testing.T) {
	e := newEnvHotCold(t)
	g := NewGovernor(e.mgr, GovernorConfig{
		Tables:     []string{"Header", "Item"},
		AgeHotRows: 1,
	})
	oldSplit := e.db.MustTable("Header").Partitions()[0].Hi

	act, err := tickAt(g, t, 0)
	if err != nil || act != GovAge {
		t.Fatalf("aging tick: action %q err %v, want age", act, err)
	}
	hdrSplit := e.db.MustTable("Header").Partitions()[0].Hi
	itemSplit := e.db.MustTable("Item").Partitions()[0].Hi
	if hdrSplit <= oldSplit {
		t.Fatalf("split did not advance: %d -> %d", oldSplit, hdrSplit)
	}
	if hdrSplit != itemSplit {
		t.Fatalf("tables aged at different splits: Header %d, Item %d", hdrSplit, itemSplit)
	}
	if g.Snapshot().Ages != 1 {
		t.Fatalf("ages = %d, want 1", g.Snapshot().Ages)
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
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 3; i++ {
		ticks <- base.Add(time.Duration(i) * time.Second)
	}
	g.Stop()
	g.Stop() // no-op
	if got := g.Snapshot().Ticks; got != 3 {
		t.Fatalf("3 ticks ran %d governor ticks", got)
	}
	select {
	case ticks <- base:
		t.Fatal("a control loop still receives ticks after Stop")
	default:
	}
}
