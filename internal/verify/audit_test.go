package verify_test

import (
	"testing"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/difftest"
	"aggcache/internal/obs"
	"aggcache/internal/recycler"
	"aggcache/internal/verify"
	"aggcache/internal/workload"
)

// TestAuditorCleanPass populates a cache (with recycler) through real
// executions and expects the invariant pass to come back clean, with the
// audit.* metrics published.
func TestAuditorCleanPass(t *testing.T) {
	erp, err := workload.BuildERP(difftest.SmallERP(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rc := recycler.New(recycler.Config{Metrics: reg})
	m := core.NewManager(erp.DB, erp.Reg, core.Config{Metrics: reg, Recycler: rc})
	for _, y := range []int{2012, 2013, 2014} {
		for _, lang := range []string{"ENG", "GER"} {
			if _, _, err := m.Execute(erp.ProfitQuery(y, lang), core.CachedFullPruning); err != nil {
				t.Fatal(err)
			}
		}
	}

	a := verify.NewAuditor([]*core.Manager{m}, verify.AuditorConfig{Metrics: reg})
	rep := a.RunOnce()
	if !rep.OK {
		t.Fatalf("audit found violations on a healthy cache: %v", rep.Violations)
	}
	if len(rep.Shards) != 1 {
		t.Fatalf("audit reported %d managers, want 1", len(rep.Shards))
	}
	sa := rep.Shards[0]
	if sa.Cache.Entries == 0 {
		t.Fatal("audit saw an empty cache — test did not exercise entries")
	}
	if sa.Cache.AccountedBytes != sa.Cache.SummedBytes {
		t.Fatalf("byte accounting drift not flagged: %d vs %d",
			sa.Cache.AccountedBytes, sa.Cache.SummedBytes)
	}
	if sa.Recycler == nil {
		t.Fatal("recycler configured but its audit section is missing")
	}
	if rep.Passes != 1 {
		t.Fatalf("passes = %d, want 1", rep.Passes)
	}
	if got := reg.Counter("audit.passes").Value(); got != 1 {
		t.Fatalf("audit.passes = %d, want 1", got)
	}
	if got := reg.Gauge("audit.violations").Value(); got != 0 {
		t.Fatalf("audit.violations = %d, want 0", got)
	}

	// Last returns the retained report without re-running.
	if last := a.Last(); last.Passes != 1 {
		t.Fatalf("Last re-ran the pass: passes = %d", last.Passes)
	}
}

// TestAuditorLastRunsWhenEmpty checks the /debug/audit guarantee: Last on
// a never-run auditor performs a pass instead of returning nothing.
func TestAuditorLastRunsWhenEmpty(t *testing.T) {
	erp, err := workload.BuildERP(difftest.SmallERP(1))
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(erp.DB, erp.Reg, core.Config{Metrics: obs.NewRegistry()})
	a := verify.NewAuditor([]*core.Manager{m}, verify.AuditorConfig{})
	if rep := a.Last(); rep.Passes != 1 || !rep.OK {
		t.Fatalf("Last on fresh auditor: passes=%d ok=%v", rep.Passes, rep.OK)
	}
}

// TestAuditorLoop drives the Start/Stop cadence behind -audit from an
// injected tick channel: one pass per tick, none after Stop.
func TestAuditorLoop(t *testing.T) {
	erp, err := workload.BuildERP(difftest.SmallERP(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := core.NewManager(erp.DB, erp.Reg, core.Config{Metrics: reg})
	a := verify.NewAuditor([]*core.Manager{m}, verify.AuditorConfig{Metrics: reg})
	ticks := make(chan time.Time)
	verify.SetAuditTicks(a, ticks)
	a.Start(time.Hour)
	a.Start(time.Hour) // no-op
	ticks <- time.Time{}
	ticks <- time.Time{}
	a.Stop()
	if got := reg.Counter("audit.passes").Value(); got != 2 {
		t.Fatalf("2 ticks completed %d audit passes", got)
	}
	select {
	case ticks <- time.Time{}:
		t.Fatal("the audit loop still receives ticks after Stop")
	default:
	}
	a.Stop() // double-Stop is a no-op
}
