package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// reportShardFailure shrinks the failing shard-mode sequence, prints the
// seed and the minimal program, and persists it as an artifact when
// AGGCACHE_DIFFTEST_ARTIFACTS names a directory.
func reportShardFailure(t *testing.T, cfg ShardConfig, seed int64, ops []Op, err error) {
	t.Helper()
	min := shrink(ops, func(candidate []Op) bool {
		_, err := RunShardSeed(cfg, seed, candidate)
		return err != nil
	})
	_, minErr := RunShardSeed(cfg, seed, min)
	report := fmt.Sprintf("shard difftest failure (reproduce with seed below)\nerror: %v\nminimized error: %v\n%s",
		err, minErr, Format(seed, min))
	if dir := os.Getenv("AGGCACHE_DIFFTEST_ARTIFACTS"); dir != "" {
		if mkErr := os.MkdirAll(dir, 0o755); mkErr == nil {
			path := filepath.Join(dir, fmt.Sprintf("shard-seed-%d.txt", seed))
			_ = os.WriteFile(path, []byte(report), 0o644)
			report += "\nartifact: " + path
		}
	}
	t.Fatal(report)
}

// TestDifferentialShard runs seeded mixed workloads against 1-, 2-, and
// 8-shard clusters in lockstep with an unsharded oracle: every embedded
// query check must return rows byte-identical to the unsharded uncached
// oracle at every shard count, strategy, and worker count, with statistics
// and canonical decision ledgers worker-count independent at each fixed
// shard count — sharding must be observationally invisible.
func TestDifferentialShard(t *testing.T) {
	seeds := seedCount(4)
	for s := 0; s < seeds; s++ {
		seed := int64(5000 + s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := ShardConfig{ERP: SmallERP(seed), Ops: 50}
			ops := Generate(seed, cfg.Ops)
			if _, err := RunShardSeed(cfg, seed, ops); err != nil {
				reportShardFailure(t, cfg, seed, ops, err)
			}
		})
	}
}

// TestDifferentialShardRepeat is TestDifferentialShard with every check
// read twice under one strategy and nothing in between, so the second read
// of every shard manager may come from its entries' result memos and must
// still match the unsharded oracle.
func TestDifferentialShardRepeat(t *testing.T) {
	seeds := seedCount(4)
	for s := 0; s < seeds; s++ {
		seed := int64(5000 + s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := ShardConfig{ERP: SmallERP(seed), Ops: 50}
			ops := checksToRepeats(Generate(seed, cfg.Ops))
			if _, err := RunShardSeed(cfg, seed, ops); err != nil {
				reportShardFailure(t, cfg, seed, ops, err)
			}
		})
	}
}

// TestDifferentialShardHotCold combines horizontal sharding with hot/cold
// range partitioning inside every shard: two orthogonal partitioning axes
// must still be invisible in results.
func TestDifferentialShardHotCold(t *testing.T) {
	seeds := seedCount(2)
	for s := 0; s < seeds; s++ {
		seed := int64(6000 + s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := ShardConfig{ERP: HotColdERP(seed), Ops: 40}
			ops := Generate(seed, cfg.Ops)
			if _, err := RunShardSeed(cfg, seed, ops); err != nil {
				reportShardFailure(t, cfg, seed, ops, err)
			}
		})
	}
}

// TestShardCorruptionCaught injects a deterministic corruption into one
// cached aggregate partial of every shard manager and asserts the next
// check against the unsharded oracle reports the divergence — the shard
// fold must not mask a corrupted per-shard partial.
func TestShardCorruptionCaught(t *testing.T) {
	t.Parallel()
	cfg := ShardConfig{ERP: SmallERP(11), Ops: 0, ShardCounts: []int{2}}
	// Warm the cache with a check, corrupt, then re-check: the second check
	// must fail against the oracle.
	ops := []Op{
		{Kind: OpCheck, A: 3, B: 1, C: 0}, // ItemRevenueQuery — cacheable shape
		{Kind: OpCorrupt, A: 11},
		{Kind: OpCheck, A: 3, B: 1, C: 0},
	}
	_, err := RunShardSeed(cfg, 11, ops)
	if err == nil {
		t.Fatal("corrupted shard cache entry was not caught by the oracle check")
	}
}
