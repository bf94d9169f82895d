package advisor

import (
	"strings"
	"testing"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/workload"
)

// dec builds one synthetic ledger decision with the profit components the
// simulator reads.
func dec(seq int64, kind obs.DecisionKind, key string, size uint64, computeNS, mainRows, serveNS int64) obs.Decision {
	return obs.Decision{
		Seq: seq, Kind: kind, Key: key,
		SizeBytes: size, ComputeNS: computeNS, MainRows: mainRows, ServeNS: serveNS,
	}
}

func TestSimulateHitMissAccounting(t *testing.T) {
	ds := []obs.Decision{
		dec(1, obs.DecisionAdmit, "a", 100, 1000, 50, 0),
		dec(2, obs.DecisionMiss, "a", 100, 1000, 50, 900),
		dec(3, obs.DecisionHit, "a", 100, 1000, 50, 10),
		dec(4, obs.DecisionAdmit, "b", 50, 200, 20, 0),
		dec(5, obs.DecisionMiss, "b", 50, 200, 20, 180),
		dec(6, obs.DecisionHit, "b", 50, 200, 20, 20),
	}
	r := Simulate(ds, Config{Label: "unlimited"}, CostWallClock)
	if r.Accesses != 4 || r.Hits != 2 || r.Misses != 2 || r.Admitted != 2 || r.Evictions != 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.HitRate != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", r.HitRate)
	}
	if r.EndBytes != 150 || r.MaxBytes != 150 || r.EndEntries != 2 {
		t.Fatalf("footprint = end %d / max %d / entries %d", r.EndBytes, r.MaxBytes, r.EndEntries)
	}
	// Each hit saves compute minus the observed hit serving cost:
	// (1000-10) + (200-20).
	if r.EstSaved != 990+180 {
		t.Fatalf("EstSaved = %d, want %d", r.EstSaved, 990+180)
	}
	// Under the rows model the same stream saves main rows and serving is
	// free: 50 + 20.
	rows := Simulate(ds, Config{Label: "unlimited"}, CostRows)
	if rows.EstSaved != 70 {
		t.Fatalf("rows EstSaved = %d, want 70", rows.EstSaved)
	}
}

// capacityStream builds two entries whose policy preferences differ: "big"
// is expensive and dense, "small" is cheap but recently used.
func capacityStream() []obs.Decision {
	return []obs.Decision{
		dec(1, obs.DecisionAdmit, "big", 100, 1000, 80, 0),
		dec(2, obs.DecisionMiss, "big", 100, 1000, 80, 900),
		dec(3, obs.DecisionAdmit, "small", 10, 10, 5, 0),
		dec(4, obs.DecisionMiss, "small", 10, 10, 5, 9),
	}
}

func TestSimulatePolicies(t *testing.T) {
	cases := []struct {
		policy  Policy
		survive string
	}{
		// Profit: big = 1000/101 beats small = 10/11 → evict small.
		{PolicyProfit, "big"},
		// LRU: big was admitted first → evict big, keep small.
		{PolicyLRU, "small"},
		// Raw benefit: 1000 beats 10 → evict small.
		{PolicyRawBenefit, "big"},
	}
	for _, tc := range cases {
		r := Simulate(capacityStream(), Config{CapacityBytes: 105, Policy: tc.policy}, CostWallClock)
		if r.Evictions != 1 || r.EndEntries != 1 {
			t.Fatalf("%s: result = %+v", tc.policy, r)
		}
		var wantBytes uint64 = 100
		if tc.survive == "small" {
			wantBytes = 10
		}
		if r.EndBytes != wantBytes {
			t.Fatalf("%s: survivor bytes = %d, want %d (%s)", tc.policy, r.EndBytes, wantBytes, tc.survive)
		}
	}
}

func TestSimulateAdmissionThreshold(t *testing.T) {
	// freshProfit(small) = 10/11 < 1 is rejected; big = 1000/101 admitted.
	r := Simulate(capacityStream(), Config{MinProfit: 1}, CostWallClock)
	if r.Admitted != 1 || r.Rejected != 1 || r.EndBytes != 100 {
		t.Fatalf("result = %+v", r)
	}
	// A not-self-maintainable reject is binding under every configuration,
	// including MinProfit 0.
	ds := []obs.Decision{
		func() obs.Decision {
			d := dec(1, obs.DecisionReject, "x", 40, 400, 30, 0)
			d.Reason = "not-self-maintainable"
			return d
		}(),
		dec(2, obs.DecisionMiss, "x", 40, 400, 30, 350),
		dec(3, obs.DecisionMiss, "x", 40, 400, 30, 350),
	}
	r = Simulate(ds, Config{}, CostWallClock)
	if r.Admitted != 0 || r.Rejected != 2 || r.Hits != 0 {
		t.Fatalf("inadmissible key result = %+v", r)
	}
}

func TestSimulateShardSplit(t *testing.T) {
	// One 150-byte entry under a 200-byte budget fits unified but not in a
	// 2-way split (each shard holds 100): the split evicts it immediately.
	ds := []obs.Decision{
		dec(1, obs.DecisionAdmit, "a", 150, 1000, 50, 0),
		dec(2, obs.DecisionMiss, "a", 150, 1000, 50, 900),
	}
	unified := Simulate(ds, Config{CapacityBytes: 200}, CostWallClock)
	if unified.Evictions != 0 || unified.EndEntries != 1 {
		t.Fatalf("unified = %+v", unified)
	}
	split := Simulate(ds, Config{CapacityBytes: 200, Shards: 2}, CostWallClock)
	if split.Evictions != 1 || split.EndEntries != 0 {
		t.Fatalf("2-way split = %+v", split)
	}
}

func TestSimulateInvalidationRebuild(t *testing.T) {
	ds := []obs.Decision{
		dec(1, obs.DecisionAdmit, "a", 100, 1000, 50, 0),
		dec(2, obs.DecisionMiss, "a", 100, 1000, 50, 900),
		dec(3, obs.DecisionInvalidate, "a", 100, 1000, 50, 0),
		dec(4, obs.DecisionRebuild, "a", 120, 1100, 60, 950),
		dec(5, obs.DecisionHit, "a", 120, 1100, 60, 10),
	}
	r := Simulate(ds, Config{}, CostWallClock)
	if r.Rebuilds != 1 || r.Hits != 1 || r.Misses != 1 {
		t.Fatalf("result = %+v", r)
	}
	if r.EndBytes != 120 {
		t.Fatalf("rebuild did not track the new size: %+v", r)
	}
}

func TestSimulateMaintenanceResize(t *testing.T) {
	fold := dec(3, obs.DecisionFold, "a", 140, 1200, 70, 0)
	fold.Rows = 20
	ds := []obs.Decision{
		dec(1, obs.DecisionAdmit, "a", 100, 1000, 50, 0),
		dec(2, obs.DecisionMiss, "a", 100, 1000, 50, 900),
		fold,
	}
	r := Simulate(ds, Config{}, CostWallClock)
	if r.EndBytes != 140 || r.MaxBytes != 140 || r.EndEntries != 1 {
		t.Fatalf("fold resize not applied: %+v", r)
	}
	// Growing past a tight budget evicts the resident entry.
	r = Simulate(ds, Config{CapacityBytes: 110}, CostWallClock)
	if r.Evictions != 1 || r.EndEntries != 0 {
		t.Fatalf("fold growth did not trigger eviction: %+v", r)
	}
}

// syntheticLedger is a small deterministic workload: three keys cycling
// through builds, hits, an invalidation, and a re-build, with enough
// admission records for the MinProfit quantile sweep.
func syntheticLedger() []obs.Decision {
	inval := dec(9, obs.DecisionInvalidate, "q2", 300, 600, 40, 0)
	inval.Reason = "test"
	return []obs.Decision{
		dec(1, obs.DecisionAdmit, "q1", 500, 5000, 250, 0),
		dec(2, obs.DecisionMiss, "q1", 500, 5000, 250, 4000),
		dec(3, obs.DecisionAdmit, "q2", 300, 600, 40, 0),
		dec(4, obs.DecisionMiss, "q2", 300, 600, 40, 500),
		dec(5, obs.DecisionAdmit, "q3", 80, 100, 10, 0),
		dec(6, obs.DecisionMiss, "q3", 80, 100, 10, 90),
		dec(7, obs.DecisionHit, "q1", 500, 5000, 250, 50),
		dec(8, obs.DecisionHit, "q2", 300, 600, 40, 30),
		inval,
		dec(10, obs.DecisionRebuild, "q2", 300, 650, 42, 550),
		dec(11, obs.DecisionHit, "q1", 500, 5000, 250, 45),
		dec(12, obs.DecisionHit, "q3", 80, 100, 10, 12),
	}
}

func TestAnalyzeReport(t *testing.T) {
	reg := obs.NewRegistry()
	rep := Analyze(syntheticLedger(), Options{CapacityBytes: 900, Cost: CostRows, Metrics: reg})
	if rep.Decisions != 12 {
		t.Fatalf("Decisions = %d", rep.Decisions)
	}
	a := rep.Actual
	if a.Accesses != 8 || a.Hits != 4 || a.Misses != 3 || a.Rebuilds != 1 || a.Admitted != 3 {
		t.Fatalf("Actual = %+v", a)
	}
	if a.HitRate != 0.5 {
		t.Fatalf("actual hit rate = %g", a.HitRate)
	}
	if len(rep.CapacitySweep) == 0 || rep.CapacitySweep[0].Label != "unlimited" {
		t.Fatalf("capacity sweep = %+v", rep.CapacitySweep)
	}
	if len(rep.Policies) != int(numPolicies) || len(rep.TenantSplits) != 2 {
		t.Fatalf("policies = %d, tenant splits = %d", len(rep.Policies), len(rep.TenantSplits))
	}
	// All three keys fit in 900 bytes, so the baseline replay is exact.
	if rep.FidelityPP != 0 {
		t.Fatalf("fidelity = %gpp, want exact", rep.FidelityPP)
	}
	// advisor.sim_runs counts every Simulate call of the analysis.
	want := int64(1 + len(rep.CapacitySweep) + len(rep.MinProfitSweep) +
		len(rep.Policies) + len(rep.TenantSplits))
	if got := reg.Snapshot().Counters["advisor.sim_runs"]; got != want {
		t.Fatalf("advisor.sim_runs = %d, want %d", got, want)
	}
	// The rendered report carries the headline numbers.
	var sb strings.Builder
	rep.Render(&sb)
	for _, frag := range []string{"cache advisor", "capacity sweep", "50.0% hit rate"} {
		if !strings.Contains(sb.String(), frag) {
			t.Fatalf("rendered report missing %q:\n%s", frag, sb.String())
		}
	}
}

func TestAnalyzeEmptyLedger(t *testing.T) {
	rep := Analyze(nil, Options{Metrics: obs.NewRegistry()})
	if rep.Decisions != 0 || len(rep.CapacitySweep) != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "ledger empty") {
		t.Fatalf("empty render = %q", sb.String())
	}
	if got := rep.CanonString(); !strings.HasPrefix(got, "decisions=0 ") {
		t.Fatalf("empty canon = %q", got)
	}
}

func TestCanonStringDeterministic(t *testing.T) {
	opts := Options{CapacityBytes: 900, Cost: CostRows, Metrics: obs.NewRegistry()}
	a := Analyze(syntheticLedger(), opts).CanonString()
	b := Analyze(syntheticLedger(), opts).CanonString()
	if a != b {
		t.Fatalf("canon drifted between identical analyses:\n%s\nvs\n%s", a, b)
	}
	// Wall-clock-only jitter (serve times) must not move the CostRows canon.
	jittered := syntheticLedger()
	for i := range jittered {
		jittered[i].ServeNS *= 3
		jittered[i].UnixNS = int64(i) * 1e9
	}
	if c := Analyze(jittered, opts).CanonString(); c != a {
		t.Fatalf("CostRows canon depends on wall-clock fields:\n%s\nvs\n%s", c, a)
	}
}

// TestAdvisorFidelityERP is the acceptance-criteria check: replaying the
// ledger of a real ERP run at the actual configured capacity must reproduce
// the run's observed hit rate within one percentage point.
func TestAdvisorFidelityERP(t *testing.T) {
	cfg := workload.DefaultERPConfig()
	cfg.Headers = 300
	cfg.ItemsPerHeader = 4
	cfg.Categories = 20
	erp, err := workload.BuildERP(cfg)
	if err != nil {
		t.Fatal(err)
	}

	queries := func() []*query.Query {
		var qs []*query.Query
		for y := 0; y < cfg.Years; y++ {
			for _, lang := range cfg.Languages {
				qs = append(qs, erp.ProfitQuery(cfg.BaseYear+y, lang))
			}
		}
		qs = append(qs, erp.HeaderCountQuery(), erp.ItemRevenueQuery(),
			erp.YearRangeQuery(cfg.BaseYear, cfg.BaseYear+1))
		return qs
	}

	// Size the working set with an unconstrained manager, then rerun the
	// same workload against half that footprint so evictions and regrets
	// actually happen.
	sizing := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	for _, q := range queries() {
		if _, _, err := sizing.Execute(q, core.CachedFullPruning); err != nil {
			t.Fatal(err)
		}
	}
	capacity := sizing.SizeBytes() / 2
	if capacity == 0 {
		t.Fatal("sizing run cached nothing")
	}

	led := obs.NewLedger(0)
	reg := obs.NewRegistry()
	mgr := core.NewManager(erp.DB, erp.Reg, core.Config{
		Workers: 1, CapacityBytes: capacity, Metrics: reg, Ledger: led,
	})
	run := func() {
		for _, q := range queries() {
			if _, _, err := mgr.Execute(q, core.CachedFullPruning); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	run()
	if err := erp.InsertBusinessObjects(20); err != nil {
		t.Fatal(err)
	}
	run()
	if err := erp.DB.MergeTablesOnline(false, workload.THeader, workload.TItem); err != nil {
		t.Fatal(err)
	}
	run()

	rep := Analyze(led.Snapshot(), Options{CapacityBytes: capacity, Metrics: obs.NewRegistry()})
	if rep.Actual.Accesses == 0 || rep.Actual.Hits == 0 || rep.Actual.Evictions == 0 {
		t.Fatalf("workload not exercising the cache: %+v", rep.Actual)
	}
	if rep.FidelityPP > 1.0 {
		t.Fatalf("baseline simulation off by %.2fpp (actual %.4f, simulated %.4f)",
			rep.FidelityPP, rep.Actual.HitRate, rep.Baseline.HitRate)
	}
	// The sweep's actual-capacity point is the same configuration and must
	// agree just as closely.
	var at *SimResult
	for i := range rep.CapacitySweep {
		if rep.CapacitySweep[i].Label == "actual-capacity" {
			at = &rep.CapacitySweep[i]
		}
	}
	if at == nil {
		t.Fatalf("capacity sweep missing the actual-capacity point: %+v", rep.CapacitySweep)
	}
	if diff := 100 * abs(at.HitRate-rep.Actual.HitRate); diff > 1.0 {
		t.Fatalf("actual-capacity sweep point off by %.2fpp", diff)
	}
	// More budget can only help on this replay: the unlimited point must be
	// at least as good as the constrained baseline.
	if rep.CapacitySweep[0].HitRate+1e-9 < rep.Baseline.HitRate {
		t.Fatalf("unlimited sweep point (%.4f) below constrained baseline (%.4f)",
			rep.CapacitySweep[0].HitRate, rep.Baseline.HitRate)
	}
}
