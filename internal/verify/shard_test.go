package verify_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"aggcache/internal/core"
	"aggcache/internal/difftest"
	"aggcache/internal/obs"
	"aggcache/internal/shard"
	"aggcache/internal/verify"
	"aggcache/internal/workload"
)

// buildShardedFixture builds a cluster whose shard managers share one
// registry, as the shell's do: registry metrics are cluster totals.
func buildShardedFixture(t *testing.T, seed int64, shards int) (*workload.ShardedERP, *shard.Sharded) {
	t.Helper()
	serp, err := workload.BuildShardedERP(difftest.SmallERP(seed), shards)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := shard.New(serp.Cluster, shard.Config{
		Manager: core.Config{Workers: 2, Metrics: reg},
		Metrics: reg,
	})
	return serp, s
}

// TestAuditorShardsCleanPasses runs invariant passes over every shard
// manager of a healthy 2-shard deployment: every shard audited
// independently, watermarks captured per shard, and a second pass after
// writes sees only forward watermark motion.
func TestAuditorShardsCleanPasses(t *testing.T) {
	serp, s := buildShardedFixture(t, 21, 2)
	q := serp.ItemRevenueQuery()
	for i := 0; i < 3; i++ {
		if _, _, err := s.Execute(q, core.CachedFullPruning); err != nil {
			t.Fatal(err)
		}
	}

	a := verify.NewAuditor(s.Managers(), verify.AuditorConfig{})
	rep := a.RunOnce()
	if !rep.OK {
		t.Fatalf("clean cluster failed audit: %v", rep.Violations)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("per-shard reports = %d, want 2", len(rep.Shards))
	}
	wms := func(rep verify.AuditReport) []uint64 {
		var out []uint64
		for _, sa := range rep.Shards {
			out = append(out, sa.Cache.Watermark)
		}
		return out
	}
	if got, want := wms(rep), s.Cluster().Watermarks(); got[0] != uint64(want[0]) || got[1] != uint64(want[1]) {
		t.Fatalf("audited watermarks %v, cluster watermarks %v", got, want)
	}

	// Writes advance the last shard's watermark (monotonic header IDs route
	// there); the next pass must stay OK and never see regression.
	if err := serp.InsertBusinessObjects(4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Execute(q, core.CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	rep2 := a.RunOnce()
	if !rep2.OK {
		t.Fatalf("cluster failed audit after writes: %v", rep2.Violations)
	}
	before, after := wms(rep), wms(rep2)
	for i := range after {
		if after[i] < before[i] {
			t.Fatalf("shard %d watermark regressed across passes: %d -> %d", i, before[i], after[i])
		}
	}
	if after[1] <= before[1] {
		t.Fatalf("last shard watermark did not advance after inserts: %v -> %v", before, after)
	}
	if rep2.Passes != 2 {
		t.Fatalf("Passes = %d, want 2", rep2.Passes)
	}
	if got := s.Metrics().Counter("audit.passes").Value(); got != 2 {
		t.Fatalf("audit.passes = %d, want 2", got)
	}
	if got := s.Metrics().Gauge("audit.violations").Value(); got != 0 {
		t.Fatalf("audit.violations = %d, want 0", got)
	}
	if last := a.Last(); last.Passes != rep2.Passes {
		t.Fatalf("Last() returned pass %d, want %d", last.Passes, rep2.Passes)
	}
}

// TestPerShardVerifyDivergenceReproducer is the sharded fault-injection
// end-to-end: corrupt exactly one shard's cached aggregate partial, and the
// per-shard shadow verifier on that shard — not the others — must catch the
// divergence during a normal scatter-gather execution, persisting a
// reproducer artifact whose embedded difftest program replays to a failure
// through RunSeed, whose runner holds clusters of one, two and eight shards.
func TestPerShardVerifyDivergenceReproducer(t *testing.T) {
	const seed = 23
	serp, s := buildShardedFixture(t, seed, 2)

	ops := []difftest.Op{
		{Kind: difftest.OpCheck, A: 3, B: 1},
		{Kind: difftest.OpCorrupt, A: seed},
		{Kind: difftest.OpCheck, A: 3, B: 1},
	}
	dir := t.TempDir()
	var vs []*verify.Verifier
	for _, m := range s.Managers() {
		vs = append(vs, verify.Attach(m, verify.Config{
			SampleRate:  1,
			ArtifactDir: dir,
			Reproducer:  func() (int64, string) { return seed, difftest.Format(seed, ops) },
		}))
	}

	// Warm every shard's cache through the scatter plane, then corrupt only
	// shard 0's cached partial.
	q := serp.ItemRevenueQuery()
	if _, _, err := s.Execute(q, core.CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	if key := s.Manager(0).CorruptEntryForVerify(seed); key == "" {
		t.Fatal("no cache entry to corrupt on shard 0")
	}
	if _, _, err := s.Execute(q, core.CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	for i, m := range s.Managers() {
		m.SetShadow(nil)
		vs[i].Stop()
	}

	// The verifiers share the managers' registry, which sums them; each
	// Status counts its own shard only.
	st0 := vs[0].Status()
	if st0.Divergences == 0 {
		t.Fatal("corrupted shard 0 partial not caught by its shadow verifier")
	}
	if st := vs[1].Status(); st.Divergences != 0 || st.Checks == 0 {
		t.Fatalf("healthy shard 1 reported %d divergences in %d checks: %+v",
			st.Divergences, st.Checks, st.LastDivergence)
	}
	if got := s.Metrics().Counter("verify.divergences").Value(); got != st0.Divergences {
		t.Fatalf("registry verify.divergences = %d, want shard 0's %d", got, st0.Divergences)
	}

	// The artifact must replay to a failure: the corruption is a logical
	// cache fault, visible at any shard count including one.
	arts, err := filepath.Glob(filepath.Join(dir, "verify-*.json"))
	if err != nil || len(arts) == 0 {
		t.Fatalf("no reproducer artifact in %s (err=%v)", dir, err)
	}
	body, err := os.ReadFile(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	var d verify.Divergence
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	pseed, pops, err := difftest.ParseProgram(d.Program)
	if err != nil {
		t.Fatal(err)
	}
	if pseed != seed || len(pops) != len(ops) {
		t.Fatalf("program round-trip: seed=%d ops=%d, want seed=%d ops=%d",
			pseed, len(pops), seed, len(ops))
	}
	if _, rerr := difftest.RunSeed(difftest.Config{ERP: difftest.SmallERP(pseed)}, pseed, pops); rerr == nil {
		t.Fatal("reproducer did not fail under the differential harness")
	}
}
