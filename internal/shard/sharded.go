package shard

import (
	"fmt"
	"strings"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/recycler"
)

// Config parameterizes the manager plane of a sharded deployment.
type Config struct {
	// Manager is the per-shard cache-manager template. Workers, capacity,
	// admission threshold, and feature toggles apply to every shard's
	// manager. When Manager.Metrics is nil each shard gets a private
	// registry so per-shard counters stay a pure function of that shard's
	// traffic; when set, all shards share it. When Manager.Recycler is set,
	// each shard gets its own recycler built from its settings: recycler
	// keys carry no shard identity, so one shared recycler would hand each
	// shard the other shards' partials. Manager.SLO and Manager.Shapes are
	// the cluster's, not the shards': the scatter records each query into
	// them once, and the shard managers are built without them.
	Manager core.Config
	// Metrics receives the scatter-gather metrics (shard.*); nil uses the
	// process-default registry.
	Metrics *obs.Registry
	// Ledgers attaches an unbounded decision ledger to every shard's
	// manager. CanonLedgers folds them in shard order — the canonical
	// decision stream the differential harness compares across worker
	// counts.
	Ledgers bool
}

// Sharded is the manager plane over a cluster: one aggregate-cache manager
// per shard (own cache entries, invalidation hooks, and metrics namespace)
// plus the scatter-gather executor. Several Sharded views with different
// worker counts may observe the same cluster, exactly as several
// core.Managers may observe one table.DB.
type Sharded struct {
	cluster *Cluster
	mgrs    []*core.Manager
	ledgers []*obs.Ledger
	obs     *shardObs
	govs    []*core.Governor
	// slo and shapes count queries, not shard executions (see observe).
	slo    *obs.SLO
	shapes *obs.Shapes
}

// shardObs holds the scatter-gather metric handles, resolved once so the
// per-query updates are pure atomics. The names extend the engine's metric
// namespace: shard.* is the cross-shard dispatch layer.
type shardObs struct {
	reg *obs.Registry

	queries     *obs.Counter // shard.queries — scatter-gather executions
	scattered   *obs.Counter // shard.scattered — per-shard dispatches issued
	pruned      *obs.Counter // shard.pruned — whole shards pruned before dispatch
	prunedEmpty *obs.Counter // shard.pruned_empty — pruned: a referenced table empty on the shard
	prunedMD    *obs.Counter // shard.pruned_md — pruned: MD tid ranges disjoint shard-wide
	prunedScan  *obs.Counter // shard.pruned_scan — pruned: filter unsatisfiable on the shard's ranges
	deltaSingle *obs.Counter // shard.delta_single — executions with <=1 delta-bearing shard
	deltaShards *obs.Counter // shard.delta_shards — delta-bearing shards summed over executions
	shards      *obs.Gauge   // shard.count — shards in the cluster
}

func newShardObs(reg *obs.Registry, shards int) *shardObs {
	if reg == nil {
		reg = obs.Default()
	}
	so := &shardObs{
		reg:         reg,
		queries:     reg.Counter("shard.queries"),
		scattered:   reg.Counter("shard.scattered"),
		pruned:      reg.Counter("shard.pruned"),
		prunedEmpty: reg.Counter("shard.pruned_empty"),
		prunedMD:    reg.Counter("shard.pruned_md"),
		prunedScan:  reg.Counter("shard.pruned_scan"),
		deltaSingle: reg.Counter("shard.delta_single"),
		deltaShards: reg.Counter("shard.delta_shards"),
		shards:      reg.Gauge("shard.count"),
	}
	so.shards.Set(int64(shards))
	return so
}

// New builds the manager plane: one core.Manager per shard from the
// template config, each with its own recycler when the template has one and
// none with the template's SLO tracker or shape profiles.
func New(c *Cluster, cfg Config) *Sharded {
	s := &Sharded{
		cluster: c,
		obs:     newShardObs(cfg.Metrics, c.NumShards()),
		slo:     cfg.Manager.SLO,
		shapes:  cfg.Manager.Shapes,
	}
	for _, sh := range c.Shards() {
		mcfg := cfg.Manager
		mcfg.SLO, mcfg.Shapes = nil, nil
		if mcfg.Metrics == nil {
			mcfg.Metrics = obs.NewRegistry()
		}
		if rc := cfg.Manager.Recycler; rc != nil {
			mcfg.Recycler = recycler.New(rc.Config())
		}
		if cfg.Ledgers {
			led := obs.NewLedger(0)
			mcfg.Ledger = led
			s.ledgers = append(s.ledgers, led)
		}
		s.mgrs = append(s.mgrs, core.NewManager(sh.DB, sh.Reg, mcfg))
	}
	return s
}

// Cluster returns the underlying data plane.
func (s *Sharded) Cluster() *Cluster { return s.cluster }

// NumShards reports the shard count.
func (s *Sharded) NumShards() int { return len(s.mgrs) }

// Manager returns shard i's cache manager.
func (s *Sharded) Manager(i int) *core.Manager { return s.mgrs[i] }

// Managers lists the per-shard cache managers in shard order.
func (s *Sharded) Managers() []*core.Manager { return append([]*core.Manager(nil), s.mgrs...) }

// Metrics returns the scatter-gather registry (the shard.* namespace).
func (s *Sharded) Metrics() *obs.Registry { return s.obs.reg }

// CanonLedgers folds the per-shard canonical decision ledgers in shard
// order, separated by shard headers. Like the per-manager canonical ledger,
// the folded stream is a pure function of the operation sequence and the
// shard count — never of the worker count — which is the invariant the
// differential harness asserts.
func (s *Sharded) CanonLedgers() string {
	var b strings.Builder
	for i, led := range s.ledgers {
		fmt.Fprintf(&b, "== shard %d ==\n", i)
		b.WriteString(obs.CanonLedger(led.Snapshot()))
	}
	return b.String()
}
