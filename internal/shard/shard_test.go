package shard_test

import (
	"fmt"
	"strings"
	"testing"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/shard"
	"aggcache/internal/workload"
)

func testCfg(seed int64) workload.ERPConfig {
	return workload.ERPConfig{
		Headers:        400,
		ItemsPerHeader: 4,
		Categories:     12,
		Languages:      []string{"ENG", "GER"},
		Years:          4,
		BaseYear:       2012,
		Seed:           seed,
	}
}

func buildSharded(t *testing.T, cfg workload.ERPConfig, shards, workers int) (*workload.ShardedERP, *shard.Sharded) {
	t.Helper()
	serp, err := workload.BuildShardedERP(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	s := shard.New(serp.Cluster, shard.Config{
		Manager: core.Config{Workers: workers},
		Metrics: obs.NewRegistry(),
	})
	return serp, s
}

func render(a *query.AggTable) string { return fmt.Sprintf("%+v", a.Rows()) }

// queries returns the four ERP shapes.
func queries(e *workload.ERP) []*query.Query {
	return []*query.Query{
		e.ProfitQuery(e.Cfg.BaseYear+1, e.Cfg.Languages[0]),
		e.YearRangeQuery(e.Cfg.BaseYear, e.Cfg.BaseYear+2),
		e.HeaderCountQuery(),
		e.ItemRevenueQuery(),
	}
}

// TestShardTransparency is the unit-level transparency check: every query
// shape, at every strategy and shard count, returns rows byte-identical to
// the unsharded uncached oracle — before and after growing and merging the
// deltas.
func TestShardTransparency(t *testing.T) {
	t.Parallel()
	cfg := testCfg(42)
	oracle, err := workload.BuildERP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := core.NewManager(oracle.DB, oracle.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})

	type view struct {
		erp *workload.ShardedERP
		s   *shard.Sharded
	}
	var views []view
	for _, n := range []int{1, 2, 8} {
		serp, s := buildSharded(t, cfg, n, 2)
		views = append(views, view{serp, s})
	}

	checkAll := func(stage string) {
		t.Helper()
		for qi, q := range queries(oracle) {
			res, _, err := om.Execute(q, core.Uncached)
			if err != nil {
				t.Fatal(err)
			}
			want := render(res)
			for _, v := range views {
				for _, strat := range core.Strategies() {
					got, _, err := v.s.Execute(q, strat)
					if err != nil {
						t.Fatalf("%s shards=%d q%d %v: %v", stage, v.s.NumShards(), qi, strat, err)
					}
					if g := render(got); g != want {
						t.Fatalf("%s shards=%d q%d %v diverged\n got: %s\nwant: %s",
							stage, v.s.NumShards(), qi, strat, g, want)
					}
				}
			}
		}
	}

	checkAll("bulk-loaded")

	if err := oracle.InsertBusinessObjects(30); err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if err := v.erp.InsertBusinessObjects(30); err != nil {
			t.Fatal(err)
		}
	}
	checkAll("delta-grown")

	if err := oracle.DB.MergeTablesOnline(false, workload.THeader, workload.TItem); err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if err := v.erp.Cluster.MergeTablesOnlineConcurrent(false, workload.THeader, workload.TItem); err != nil {
			t.Fatal(err)
		}
	}
	checkAll("merged")
}

// TestShardServedResultMutation: the gathered table a scatter-gather read
// returns is the caller's to mutate, and so is every per-shard table the
// fold reads — each may share its arrays with its shard's result memo. A
// mutated answer never reaches a memo: the repeat read is served from every
// dispatched shard's memo and is byte-identical to the unsharded oracle.
func TestShardServedResultMutation(t *testing.T) {
	t.Parallel()
	cfg := testCfg(11)
	oracle, err := workload.BuildERP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := core.NewManager(oracle.DB, oracle.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	_, s := buildSharded(t, cfg, 4, 1)
	q := oracle.ProfitQuery(cfg.BaseYear+1, cfg.Languages[0])
	res, _, err := om.Execute(q, core.Uncached)
	if err != nil {
		t.Fatal(err)
	}
	want := render(res)
	for read := range 4 {
		got, info, err := s.Execute(q, core.CachedFullPruning)
		if err != nil {
			t.Fatal(err)
		}
		if g := render(got); g != want {
			t.Fatalf("read %d after mutating served tables:\n got: %s\nwant: %s", read, g, want)
		}
		for i, pi := range info.PerShard {
			if read > 0 && info.Reasons[i] == shard.PruneNone && !pi.MemoHit {
				t.Fatalf("read %d: shard %d not served from its memo: %+v", read, i, pi)
			}
		}
		got.Perturb(int64(read))
		for i := range s.NumShards() {
			r, _, err := s.Manager(i).Execute(q, core.CachedFullPruning)
			if err != nil {
				t.Fatal(err)
			}
			r.Perturb(int64(read + i))
		}
	}
}

// TestShardWorkerFoldIdentity pins the shard-order fold invariant directly:
// the same cluster observed through 1-worker and 4-worker manager planes
// returns byte-identical rows and execution statistics.
func TestShardWorkerFoldIdentity(t *testing.T) {
	t.Parallel()
	cfg := testCfg(7)
	serp, err := workload.BuildShardedERP(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(workers int) *shard.Sharded {
		return shard.New(serp.Cluster, shard.Config{
			Manager: core.Config{Workers: workers},
			Metrics: obs.NewRegistry(),
		})
	}
	s1, s4 := mk(1), mk(4)
	if err := serp.InsertBusinessObjects(20); err != nil {
		t.Fatal(err)
	}
	for _, strat := range core.Strategies() {
		for _, q := range queries(&workload.ERP{Cfg: cfg}) {
			r1, i1, err := s1.Execute(q, strat)
			if err != nil {
				t.Fatal(err)
			}
			r4, i4, err := s4.Execute(q, strat)
			if err != nil {
				t.Fatal(err)
			}
			if render(r1) != render(r4) {
				t.Fatalf("%v: rows diverged across worker counts", strat)
			}
			if i1.Stats != i4.Stats {
				t.Fatalf("%v: stats diverged across worker counts:\n w1: %+v\n w4: %+v", strat, i1.Stats, i4.Stats)
			}
		}
	}
}

// TestShardScanPruning checks whole-shard dynamic pruning: fiscal years
// correlate with HeaderID (the routing key), so a one-year filter must
// prune shards whose year ranges miss it — and still match the oracle.
func TestShardScanPruning(t *testing.T) {
	t.Parallel()
	cfg := testCfg(3)
	oracle, err := workload.BuildERP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := core.NewManager(oracle.DB, oracle.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	_, s := buildSharded(t, cfg, 4, 2)

	q := oracle.ProfitQuery(cfg.BaseYear, cfg.Languages[0]) // first year only
	res, info, err := s.Execute(q, core.Uncached)
	if err != nil {
		t.Fatal(err)
	}
	if info.PrunedScan == 0 {
		t.Fatalf("expected scan-pruned shards for a single-year filter, got info %+v", info)
	}
	oracleRes, _, err := om.Execute(q, core.Uncached)
	if err != nil {
		t.Fatal(err)
	}
	if render(res) != render(oracleRes) {
		t.Fatalf("pruned execution diverged from oracle")
	}
	// The pruned shards' managers never saw the query.
	if info.Scattered+info.Pruned != s.NumShards() {
		t.Fatalf("scattered %d + pruned %d != shards %d", info.Scattered, info.Pruned, s.NumShards())
	}
}

// TestShardExecuteSpanTree checks the traced scatter: each dispatched
// shard's ExplainAnalyze root hangs under the scatter span in shard order,
// pruned shards add none, and the folded rows equal the untraced ones.
func TestShardExecuteSpanTree(t *testing.T) {
	t.Parallel()
	cfg := testCfg(3)
	serp, s := buildSharded(t, cfg, 4, 2)
	if err := serp.InsertBusinessObjects(5); err != nil {
		t.Fatal(err)
	}
	for _, q := range []*query.Query{
		serp.ProfitQuery(cfg.BaseYear, cfg.Languages[0]), // first year: high shards pruned
		serp.YearRangeQuery(cfg.BaseYear, cfg.BaseYear+cfg.Years-1),
	} {
		want, _, err := s.Execute(q, core.CachedFullPruning)
		if err != nil {
			t.Fatal(err)
		}
		sp := obs.StartSpan("scatter")
		got, info, err := s.ExecuteSpan(q, core.CachedFullPruning, sp)
		sp.End()
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Fatalf("traced scatter diverged from untraced:\n got %s\nwant %s", render(got), render(want))
		}
		if len(sp.Children) != info.Scattered {
			t.Fatalf("%d shard spans for %d dispatched shards", len(sp.Children), info.Scattered)
		}
		for _, c := range sp.Children {
			if !strings.HasPrefix(c.Name, "execute ") || len(c.Children) == 0 {
				t.Fatalf("shard span %q has %d children; want a shard execution tree", c.Name, len(c.Children))
			}
		}
	}
}

// TestShardEmptyPruning checks that shards left empty by an uneven router
// are pruned without dispatch.
func TestShardEmptyPruning(t *testing.T) {
	t.Parallel()
	cfg := testCfg(5)
	// 6 headers over 8 shards: the key domain is narrower than the shard
	// count, so the high shards hold no Header or Item rows at all.
	cfg.Headers = 6
	_, s := buildSharded(t, cfg, 8, 1)
	q := erpItemRevenue()
	_, info, err := s.Execute(q, core.Uncached)
	if err != nil {
		t.Fatal(err)
	}
	if info.PrunedEmpty == 0 {
		t.Fatalf("expected empty-pruned shards with 6 headers over 8 shards, got %+v", info)
	}
}

func erpItemRevenue() *query.Query {
	e := &workload.ERP{}
	return e.ItemRevenueQuery()
}

// TestShardDeltaLocality checks the headline object-aware property: a
// monotonic insert stream keeps all delta rows on the last shard, so
// executions report at most one delta-bearing shard.
func TestShardDeltaLocality(t *testing.T) {
	t.Parallel()
	cfg := testCfg(9)
	serp, s := buildSharded(t, cfg, 4, 2)
	if err := serp.InsertBusinessObjects(50); err != nil {
		t.Fatal(err)
	}
	last := serp.Cluster.NumShards() - 1
	for i := 0; i < serp.Cluster.NumShards(); i++ {
		rows := serp.Cluster.DeltaRows(i, workload.TItem)
		if i == last && rows == 0 {
			t.Fatalf("last shard has no delta rows after monotonic inserts")
		}
		if i != last && rows != 0 {
			t.Fatalf("shard %d has %d delta rows; monotonic inserts must stay on shard %d", i, rows, last)
		}
	}
	_, info, err := s.Execute(erpItemRevenue(), core.CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SingleDeltaShard || info.DeltaShards != 1 {
		t.Fatalf("expected single delta shard, got %+v", info)
	}
}

// TestShardReshardAfterAge ages the hot/cold boundary inside one shard
// (online, a physical reorganization) and checks results still match a
// fresh unsharded oracle: per-shard aging is invisible to the scatter-
// gather layer.
func TestShardReshardAfterAge(t *testing.T) {
	t.Parallel()
	cfg := testCfg(13)
	cfg.ColdShare = 0.5
	oracle, err := workload.BuildERP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := core.NewManager(oracle.DB, oracle.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	serp, s := buildSharded(t, cfg, 2, 2)

	// Age shard 0: move its hot/cold boundary up. Deltas are empty right
	// after bulk load, which AgeOnline requires.
	sh := serp.Cluster.Shard(0)
	for _, name := range []string{workload.THeader, workload.TItem} {
		cold := sh.DB.MustTable(name).Partitions()[0]
		wm := int64(sh.DB.Txns().Watermark())
		if wm <= cold.Hi {
			t.Skipf("watermark %d below cold boundary %d", wm, cold.Hi)
		}
		split := cold.Hi + (wm-cold.Hi)/2
		if split <= cold.Hi {
			split = cold.Hi + 1
		}
		if err := sh.DB.AgeOnline(name, split); err != nil {
			t.Fatal(err)
		}
	}

	for qi, q := range queries(oracle) {
		want, _, err := om.Execute(q, core.Uncached)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range core.Strategies() {
			got, _, err := s.Execute(q, strat)
			if err != nil {
				t.Fatalf("q%d %v: %v", qi, strat, err)
			}
			if render(got) != render(want) {
				t.Fatalf("q%d %v diverged after per-shard aging", qi, strat)
			}
		}
	}
}

// TestShardGovernors checks concurrent per-shard governor ticks: writes
// land on the last shard only, and the reads after each write make only
// that shard's compensation pay, so ticking all governors merges that shard
// alone, leaving the others' merge counters untouched.
func TestShardGovernors(t *testing.T) {
	t.Parallel()
	cfg := testCfg(17)
	serp, s := buildSharded(t, cfg, 4, 1)
	s.Govern(core.GovernorConfig{Tables: []string{workload.THeader, workload.TItem}})
	last := serp.Cluster.NumShards() - 1
	var merged int
	for round := 0; merged == 0 && round < 100; round++ {
		if err := serp.InsertBusinessObjects(5); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries(&workload.ERP{Cfg: cfg}) {
			if _, _, err := s.Execute(q, core.CachedFullPruning); err != nil {
				t.Fatal(err)
			}
		}
		shards, err := s.TickAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range shards {
			if m {
				merged++
			}
		}
	}
	if merged == 0 {
		t.Fatal("no governor merged despite compensation work on the last shard")
	}
	for i, g := range s.Governors() {
		snap := g.Snapshot()
		if i == last && snap.Merges == 0 {
			t.Fatalf("last shard's governor never merged: %+v", snap)
		}
		if i != last && snap.Merges != 0 {
			t.Fatalf("shard %d's governor merged with an empty delta: %+v", i, snap)
		}
	}
	if rows := serp.Cluster.DeltaRows(last, workload.TItem); rows != 0 {
		t.Fatalf("last shard still holds %d delta rows after governed merge", rows)
	}
}

// TestShardSnapshot sanity-checks the /debug/shards payload: layout,
// per-shard ranges, and row totals against the configuration.
func TestShardSnapshot(t *testing.T) {
	t.Parallel()
	cfg := testCfg(21)
	_, s := buildSharded(t, cfg, 4, 1)
	if _, _, err := s.Execute(erpItemRevenue(), core.Uncached); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Shards != 4 || len(snap.PerShard) != 4 {
		t.Fatalf("snapshot shards = %d / %d, want 4", snap.Shards, len(snap.PerShard))
	}
	if snap.Queries != 1 {
		t.Fatalf("snapshot queries = %d, want 1", snap.Queries)
	}
	var headers int
	for i, ps := range snap.PerShard {
		if ps.Index != i {
			t.Fatalf("per-shard index %d at position %d", ps.Index, i)
		}
		for _, ts := range ps.Tables {
			if ts.Name == workload.THeader {
				headers += ts.MainRows + ts.DeltaRows
			}
		}
	}
	if headers != cfg.Headers {
		t.Fatalf("snapshot header rows = %d, want %d", headers, cfg.Headers)
	}
}
