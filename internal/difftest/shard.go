package difftest

import (
	"fmt"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/shard"
	"aggcache/internal/workload"
)

// ShardConfig parameterizes one shard-transparency differential run.
type ShardConfig struct {
	// ERP is the schema/bulk-load configuration, shared verbatim by the
	// unsharded oracle and every sharded view.
	ERP workload.ERPConfig
	// Ops is the number of generated operations.
	Ops int
	// ShardCounts are the cluster sizes under test (default 1, 2, 8).
	ShardCounts []int
}

// DefaultShardCounts are the cluster sizes the harness exercises: the
// degenerate single shard, an even split, and more shards than the small
// schema comfortably fills (so some shards stay near-empty and the
// whole-shard prune paths run).
var DefaultShardCounts = []int{1, 2, 8}

// shardView is one cluster under test: a shard count and two Sharded
// manager planes over the same data plane, at one and four workers.
type shardView struct {
	shards int
	erp    *workload.ShardedERP
	s1, s4 *shard.Sharded
}

// ShardRunner executes an operation sequence against an unsharded oracle
// database and several sharded clusters in lockstep. All databases are
// built from the same config and seed, so they consume the deterministic
// row generator identically and hold exactly the same logical rows; every
// check asserts the sharded results — at every shard count, worker count,
// and strategy — are byte-identical to the unsharded uncached oracle, and
// that each view's canonical decision ledgers are worker-count independent.
type ShardRunner struct {
	oracle  *workload.ERP
	om      *core.Manager
	views   []*shardView
	objs    objects
	cfg     ShardConfig
	Outputs []string
}

// NewShardRunner builds the oracle database and the sharded views.
func NewShardRunner(cfg ShardConfig) (*ShardRunner, error) {
	if len(cfg.ShardCounts) == 0 {
		cfg.ShardCounts = DefaultShardCounts
	}
	oracle, err := workload.BuildERP(cfg.ERP)
	if err != nil {
		return nil, err
	}
	r := &ShardRunner{
		oracle: oracle,
		om: core.NewManager(oracle.DB, oracle.Reg, core.Config{
			Workers: 1,
			Metrics: obs.NewRegistry(),
		}),
		cfg: cfg,
	}
	for _, n := range cfg.ShardCounts {
		serp, err := workload.BuildShardedERP(cfg.ERP, n)
		if err != nil {
			return nil, err
		}
		mk := func(workers int) *shard.Sharded {
			return shard.New(serp.Cluster, shard.Config{
				Manager: core.Config{Workers: workers},
				Metrics: obs.NewRegistry(),
				Ledgers: true,
			})
		}
		r.views = append(r.views, &shardView{shards: n, erp: serp, s1: mk(1), s4: mk(4)})
	}
	r.objs = bulkObjects(cfg.ERP)
	return r, nil
}

// Run executes the sequence, then sweeps every query shape and compares the
// per-view canonical ledgers across worker counts.
func (r *ShardRunner) Run(ops []Op) error {
	for i, op := range ops {
		if err := r.apply(op); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, op.Kind, err)
		}
	}
	for shape := int64(0); shape < 4; shape++ {
		if err := r.check(Op{Kind: OpCheck, A: shape, B: 1, C: 0}); err != nil {
			return fmt.Errorf("final check: %w", err)
		}
	}
	for _, v := range r.views {
		c1, c4 := v.s1.CanonLedgers(), v.s4.CanonLedgers()
		if c1 != c4 {
			return fmt.Errorf("shards=%d: decision ledgers diverged across worker counts:%s",
				v.shards, firstDiffLine(c1, c4))
		}
	}
	return nil
}

// apply replays one operation on the oracle database and on every sharded
// view. Mutations consume the deterministic row generators in lockstep;
// staged-merge, crash, and aging operations are no-ops here (they are
// covered by the base harness) so any generated sequence remains valid, and
// a repeat reads its query twice with nothing in between.
func (r *ShardRunner) apply(op Op) error {
	switch op.Kind {
	case OpInsert:
		items := int(op.A%3) + 1
		hid := r.oracle.NextHeaderID()
		start := r.objs.nextItemID()
		if err := r.oracle.InsertBusinessObject(items); err != nil {
			return err
		}
		for _, v := range r.views {
			if err := v.erp.InsertBusinessObject(items); err != nil {
				return fmt.Errorf("shards=%d: %w", v.shards, err)
			}
		}
		o := object{hid: hid, alive: true}
		for j := 0; j < items; j++ {
			o.items = append(o.items, start+int64(j))
		}
		r.objs = append(r.objs, o)

	case OpUpdate:
		idx := r.objs.pickAlive(op.A)
		if idx < 0 {
			return nil
		}
		o := r.objs[idx]
		itemID := o.items[op.B%int64(len(o.items))]
		price := float64(1 + op.C%1000) // integer-valued: exact arithmetic
		if err := reprice(r.oracle.DB, itemID, price); err != nil {
			return err
		}
		for _, v := range r.views {
			sh := v.erp.Cluster.Shard(v.erp.Cluster.ShardFor(o.hid))
			if err := reprice(sh.DB, itemID, price); err != nil {
				return fmt.Errorf("shards=%d: %w", v.shards, err)
			}
		}

	case OpDelete:
		idx := r.objs.pickAlive(op.A)
		if idx < 0 {
			return nil
		}
		o := &r.objs[idx]
		if err := deleteObject(r.oracle.DB, o); err != nil {
			return err
		}
		for _, v := range r.views {
			sh := v.erp.Cluster.Shard(v.erp.Cluster.ShardFor(o.hid))
			if err := deleteObject(sh.DB, o); err != nil {
				return fmt.Errorf("shards=%d: %w", v.shards, err)
			}
		}

	case OpMergeOnline:
		if err := r.oracle.DB.MergeTablesOnline(false, workload.THeader, workload.TItem); err != nil {
			return err
		}
		for _, v := range r.views {
			if err := v.erp.Cluster.MergeTablesOnlineConcurrent(false, workload.THeader, workload.TItem); err != nil {
				return fmt.Errorf("shards=%d: %w", v.shards, err)
			}
		}

	case OpCheck:
		return r.check(op)

	case OpRepeat:
		// One cached strategy twice, so the second read of every shard
		// manager can be served from its entries' result memos.
		q := r.pickQuery(op)
		strat := core.Strategies()[1+(op.C>>8)%3]
		for i := 0; i < 2; i++ {
			want, err := r.oracleRows(q)
			if err != nil {
				return err
			}
			if err := r.serve(q, strat, want); err != nil {
				return fmt.Errorf("repeat, read %d: %w", i+1, err)
			}
		}

	case OpCorrupt:
		// Fault injection: perturb the seed-chosen cached partial in every
		// shard manager of every view. Silent until the next oracle check.
		for _, v := range r.views {
			for _, s := range []*shard.Sharded{v.s1, v.s4} {
				for _, m := range s.Managers() {
					m.CorruptEntryForVerify(op.A)
				}
			}
		}
	}
	return nil
}

// check runs one query shape through every strategy, shard count, and
// worker count, comparing rows against the unsharded uncached oracle and
// statistics across worker counts at each fixed shard count. (Prune and
// subjoin tallies legitimately differ across shard counts — the invariant
// is per shard count, like the worker-order one is per worker pool.)
func (r *ShardRunner) check(op Op) error {
	q := r.pickQuery(op)
	want, err := r.oracleRows(q)
	if err != nil {
		return err
	}
	for _, strat := range core.Strategies() {
		if err := r.serve(q, strat, want); err != nil {
			return err
		}
	}
	return nil
}

// oracleRows renders q's unsharded uncached answer and records it in Outputs.
func (r *ShardRunner) oracleRows(q *query.Query) (string, error) {
	res, _, err := r.om.Execute(q, core.Uncached)
	if err != nil {
		return "", err
	}
	want := renderRows(res)
	r.Outputs = append(r.Outputs, want)
	return want, nil
}

// serve runs q under strat on every view at both worker counts and compares
// the rows with the oracle's rendering want, and the Stats across the
// worker counts of each view.
func (r *ShardRunner) serve(q *query.Query, strat core.Strategy, want string) error {
	for _, v := range r.views {
		var ref query.Stats
		for wi, s := range []*shard.Sharded{v.s1, v.s4} {
			res, info, err := s.Execute(q, strat)
			if err != nil {
				return fmt.Errorf("shards=%d %v workers=%d: %w", v.shards, strat, 1+3*wi, err)
			}
			if got := renderRows(res); got != want {
				return fmt.Errorf("shards=%d %v workers=%d diverged from oracle\n got: %s\nwant: %s",
					v.shards, strat, 1+3*wi, got, want)
			}
			st := canonStats(info.Stats)
			if wi == 0 {
				ref = st
			} else if st != ref {
				return fmt.Errorf("shards=%d %v stats diverged across worker counts:\n w1: %+v\n w4: %+v",
					v.shards, strat, ref, st)
			}
		}
	}
	return nil
}

// pickQuery maps a check op to one of the four shapes (same mapping as the
// base runner).
func (r *ShardRunner) pickQuery(op Op) *query.Query {
	cfg := r.cfg.ERP
	switch op.A % 4 {
	case 0:
		year := cfg.BaseYear + int(op.B)%cfg.Years
		lang := cfg.Languages[op.C%int64(len(cfg.Languages))]
		return r.oracle.ProfitQuery(year, lang)
	case 1:
		lo := cfg.BaseYear + int(op.B)%cfg.Years
		hi := lo + int(op.C)%(cfg.Years-(lo-cfg.BaseYear))
		return r.oracle.YearRangeQuery(lo, hi)
	case 2:
		return r.oracle.HeaderCountQuery()
	default:
		return r.oracle.ItemRevenueQuery()
	}
}

// RunShardSeed builds a fresh shard runner and executes the seed's
// generated sequence (or the provided ops).
func RunShardSeed(cfg ShardConfig, seed int64, ops []Op) ([]string, error) {
	r, err := NewShardRunner(cfg)
	if err != nil {
		return nil, err
	}
	err = r.Run(ops)
	return r.Outputs, err
}
