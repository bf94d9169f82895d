// Package shard adds horizontal range sharding on top of the main-delta
// engine: a cluster of N independent databases, each owning its own
// main/delta stores, transaction watermark, and aggregate-cache namespace,
// with a scatter-gather executor that fans a query across the shards and
// folds the per-shard aggregation tables in shard order.
//
// Because every aggregate the engine serves is additively mergeable
// (internal/query/agg.go), shard count is observationally invisible: the
// folded result of any shard count is byte-identical to the unsharded
// execution of the same query. The matching-dependency tid-range metadata
// that prunes subjoin combinations inside one database (paper Sec. 5)
// applies logically across shards too: whole shards are pruned before
// dispatch when their table-level tid ranges or filter-column ranges prove
// the shard's contribution empty, so a tid-local insert stream collapses
// most delta-side work to a single shard.
package shard

import (
	"fmt"
	"sort"

	"aggcache/internal/md"
	"aggcache/internal/table"
	"aggcache/internal/txn"
)

// Router maps a routing-column value (a primary key or a tid) to a shard
// index by range partitioning. With boundaries b[0] < b[1] < ... < b[k-1],
// shard 0 owns (-inf, b[0]), shard i owns [b[i-1], b[i]), and the last
// shard owns [b[k-1], +inf) — so a monotonically increasing key stream
// (new object ids, new tids) always lands in the last shard.
type Router struct {
	boundaries []int64
}

// NewRouter validates the boundary list (strictly ascending) and returns a
// router over len(boundaries)+1 shards. An empty list is the 1-shard
// router: every key routes to shard 0.
func NewRouter(boundaries []int64) (*Router, error) {
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			return nil, fmt.Errorf("shard: boundaries not strictly ascending at %d: %d <= %d",
				i, boundaries[i], boundaries[i-1])
		}
	}
	return &Router{boundaries: append([]int64(nil), boundaries...)}, nil
}

// EvenBoundaries splits [lo, hi] into the given number of equal-width
// ranges and returns the shards-1 interior boundaries — the bulk-load
// layout where existing keys spread evenly and keys above hi (future
// inserts) route to the last shard.
func EvenBoundaries(lo, hi int64, shards int) []int64 {
	if shards <= 1 || hi < lo {
		return nil
	}
	width := (hi - lo + 1) / int64(shards)
	if width < 1 {
		width = 1
	}
	var bs []int64
	for i := 1; i < shards; i++ {
		b := lo + int64(i)*width
		if len(bs) > 0 && b <= bs[len(bs)-1] {
			b = bs[len(bs)-1] + 1
		}
		bs = append(bs, b)
	}
	return bs
}

// Shards reports the shard count the router fans across.
func (r *Router) Shards() int { return len(r.boundaries) + 1 }

// Boundaries returns a copy of the interior range boundaries.
func (r *Router) Boundaries() []int64 { return append([]int64(nil), r.boundaries...) }

// Route maps a key to its owning shard index.
func (r *Router) Route(key int64) int {
	// sort.Search finds the first boundary strictly above key; with shard i
	// owning [b[i-1], b[i]) that index IS the shard.
	return sort.Search(len(r.boundaries), func(i int) bool { return key < r.boundaries[i] })
}

// Range returns the key range [lo, hi) shard i owns; the first and last
// shards are open-ended (lo/hi reported as math.MinInt64/MaxInt64).
func (r *Router) Range(i int) (lo, hi int64) {
	lo, hi = int64(-1)<<63, int64(1<<63-1)
	if i > 0 {
		lo = r.boundaries[i-1]
	}
	if i < len(r.boundaries) {
		hi = r.boundaries[i]
	}
	return lo, hi
}

// Shard is one member of a cluster: an independent database with its own
// transaction watermark plus the matching-dependency registry bound to it.
type Shard struct {
	Index int
	DB    *table.DB
	Reg   *md.Registry
}

// Cluster is the data plane of a sharded deployment: the router plus the
// per-shard databases. Manager planes (Sharded) layer on top; several may
// share one cluster, exactly as several core.Managers may observe one
// table.DB.
type Cluster struct {
	router *Router
	shards []*Shard
}

// NewCluster builds the per-shard databases through the builder callback
// (called once per shard index, in order) and assembles the cluster.
func NewCluster(router *Router, build func(shard int) (*table.DB, *md.Registry, error)) (*Cluster, error) {
	if router == nil {
		return nil, fmt.Errorf("shard: nil router")
	}
	c := &Cluster{router: router}
	for i := 0; i < router.Shards(); i++ {
		db, reg, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		c.shards = append(c.shards, &Shard{Index: i, DB: db, Reg: reg})
	}
	return c, nil
}

// Router returns the cluster's routing function.
func (c *Cluster) Router() *Router { return c.router }

// NumShards reports the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns one shard by index.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Shards lists the shards in index order.
func (c *Cluster) Shards() []*Shard { return append([]*Shard(nil), c.shards...) }

// ShardFor routes a key to its owning shard index.
func (c *Cluster) ShardFor(key int64) int { return c.router.Route(key) }

// MergeTablesOnlineConcurrent runs the synchronized merge of the named
// tables on every shard concurrently — one goroutine per shard, no
// cross-shard coordination, no global pause. Shards are independent
// databases, so the merges share no locks or ledgers and each shard ends in
// the same state whatever order they finish in; queries keep scattering
// while a shard merges, only its swap critical section excludes them. The
// first error (in shard order) is reported.
func (c *Cluster) MergeTablesOnlineConcurrent(keepInvalidated bool, tableNames ...string) error {
	errs := make([]error, len(c.shards))
	done := make(chan int, len(c.shards))
	for i, sh := range c.shards {
		go func(i int, sh *Shard) {
			errs[i] = sh.DB.MergeTablesOnline(keepInvalidated, tableNames...)
			done <- i
		}(i, sh)
	}
	for range c.shards {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Watermarks reports each shard's commit watermark in shard order.
func (c *Cluster) Watermarks() []txn.TID {
	wms := make([]txn.TID, len(c.shards))
	for i, sh := range c.shards {
		wms[i] = sh.DB.Txns().Watermark()
	}
	return wms
}

// DeltaRows sums the named table's delta rows on one shard (all
// partitions, including a write-coalescing delta2 if a merge is active).
func (c *Cluster) DeltaRows(shard int, tableName string) int {
	sh := c.shards[shard]
	sh.DB.RLock()
	defer sh.DB.RUnlock()
	n := 0
	for _, p := range sh.DB.MustTable(tableName).Partitions() {
		n += p.Delta.Rows()
		if p.Delta2 != nil {
			n += p.Delta2.Rows()
		}
	}
	return n
}
