package shard_test

import (
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/recycler"
	"aggcache/internal/shard"
	"aggcache/internal/workload"
)

// TestShardRecyclerPerShard gives the template config a recycler and checks
// that every shard manager runs its own, built from the template's
// settings. Recycler keys carry no shard identity, so one recycler shared by
// two shards would hand each shard the other's partial for the same
// subjoin, which then fails the store guard and is dropped as invalidated.
// Each round reprices an item on shard 0 and inserts an object on shard 1,
// then reads: shard 1's delta partial must be topped up round after round.
func TestShardRecyclerPerShard(t *testing.T) {
	t.Parallel()
	cfg := testCfg(5)
	serp, err := workload.BuildShardedERP(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := recycler.New(recycler.Config{CapacityBytes: 1 << 20, Metrics: obs.NewRegistry()})
	s := shard.New(serp.Cluster, shard.Config{
		Manager: core.Config{Workers: 1, Recycler: tmpl},
		Metrics: obs.NewRegistry(),
	})
	rc0, rc1 := s.Manager(0).Recycler(), s.Manager(1).Recycler()
	if rc0 == nil || rc0 == rc1 || rc0 == tmpl || rc1 == tmpl {
		t.Fatal("shard managers do not each run a recycler of their own")
	}
	if got := rc1.Config().CapacityBytes; got != 1<<20 {
		t.Fatalf("shard recycler capacity = %d, want the template's %d", got, 1<<20)
	}

	q := serp.ItemRevenueQuery()
	const rounds = 20
	owner := serp.Cluster.Shard(0).DB
	for r := 0; r < rounds; r++ {
		tx := owner.Txns().Begin()
		if err := owner.MustTable(workload.TItem).Update(tx, int64(1+r),
			map[string]column.Value{"Price": column.FloatV(float64(7 + r))}); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		if err := serp.InsertBusinessObject(cfg.ItemsPerHeader); err != nil {
			t.Fatal(err)
		}
		if serp.Cluster.DeltaRows(1, workload.TItem) == 0 {
			t.Fatal("inserted object did not land on shard 1")
		}
		if _, _, err := s.Execute(q, core.CachedFullPruning); err != nil {
			t.Fatal(err)
		}
	}
	if d := rc1.Debug(); d.Topups < rounds-2 || d.Invalidations != 0 {
		t.Fatalf("shard 1's recycler: %d top-ups, %d invalidations over %d rounds; want >= %d top-ups, none invalidated",
			d.Topups, d.Invalidations, rounds, rounds-2)
	}
}
