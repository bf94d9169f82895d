// Package difftest is a randomized differential test harness for the
// aggregate cache: seeded generators produce mixed workloads of inserts,
// updates, deletes, atomic and staged delta merges, fault-injected
// crashes, and data aging over the ERP schema, and every embedded query
// check asserts that all cached execution strategies — on clusters of one,
// two and eight shards, at one and at four executor workers, with and
// without the cross-query recycler cache — return results byte-identical to
// the uncached oracle.
//
// Failures reproduce from their seed alone. The harness shrinks a failing
// operation sequence by greedy chunk removal before reporting, and can
// persist the minimal sequence as an artifact (AGGCACHE_DIFFTEST_ARTIFACTS).
package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"aggcache/internal/advisor"
	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/recycler"
	"aggcache/internal/shard"
	"aggcache/internal/table"
	"aggcache/internal/txn"
	"aggcache/internal/workload"
)

// OpKind enumerates the generator's operations.
type OpKind int

const (
	// OpInsert inserts one business object (header + A%3+1 items).
	OpInsert OpKind = iota
	// OpUpdate reprices one item of a live object.
	OpUpdate
	// OpDelete deletes a live business object (header and items in one
	// transaction, preserving the matching dependency).
	OpDelete
	// OpMergeOnline runs an atomic merge (group or single table).
	OpMergeOnline
	// OpBeginMerge stages an online merge (prepare + build) and leaves it
	// open, so later operations run against the frozen partition.
	OpBeginMerge
	// OpFinishMerge swaps an open staged merge.
	OpFinishMerge
	// OpAbortMerge rolls an open staged merge back.
	OpAbortMerge
	// OpCrashMerge arms a crash fault inside an online merge and checks
	// the engine survives it (ErrInjected surfaced, state rolled back).
	OpCrashMerge
	// OpAge moves the hot/cold boundary (partitioned configs only).
	OpAge
	// OpCheck runs one query shape through every strategy and worker
	// count and compares against the uncached oracle.
	OpCheck
	// OpCorrupt deterministically corrupts one cached aggregate partial in
	// every manager (fault injection): the next check against the uncached
	// oracle must catch the corruption. Generate never emits it — it exists
	// for shadow-verification reproducer artifacts (internal/verify) and
	// hand-written fault programs.
	OpCorrupt
	// OpRepeat reads one query twice under one cached strategy with
	// something in between (see repeatCase) and compares each read with
	// the uncached oracle at its snapshot — the staleness check of the
	// cache's result memo. With nothing in between, or only a write to a
	// table the query does not read, the second read must be a memo hit.
	// Generate never emits it, so seeded check sequences stay as they
	// were; the repeat tests turn checks into repeats (checksToRepeats).
	OpRepeat
	// OpOwnWrites reads a query at the snapshot of a writer that updated
	// or deleted one item and is still open, then commits or aborts the
	// writer and checks a plain read (see Runner.ownWrites): an own-writes
	// read must not leave the writer's rows in the cache. Generate never
	// emits it; TestDifferentialOwnWrites turns checks into it
	// (checksToOwnWrites).
	OpOwnWrites
	numOpKinds
)

var opKindNames = [numOpKinds]string{"insert", "update", "delete",
	"merge-online", "begin-merge", "finish-merge",
	"abort-merge", "crash-merge", "age", "check", "corrupt", "repeat",
	"own-writes"}

// String names the op for failure reports.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one generated operation. A, B, C carry raw random values the
// runner interprets modulo its live state, so any subsequence of a
// generated program is still a valid program — the property shrinking
// relies on.
type Op struct {
	Kind    OpKind
	A, B, C int64
}

// Config parameterizes one differential run.
type Config struct {
	// ERP is the schema/bulk-load configuration (kept small: the harness
	// trades per-run size for seed count).
	ERP workload.ERPConfig
	// Ops is the number of generated operations.
	Ops int
	// DisableMerges replaces every merge/age operation with a no-op; a
	// paired run with and without merges must produce byte-identical
	// check outputs (merges are pure reorganizations).
	DisableMerges bool
	// Govern attaches a maintenance governor to every shard of each
	// cluster's single-worker plain manager plane: one deterministic tick
	// per shard after every applied op (no background goroutine). The
	// governors are then the only group mergers — the group
	// branch of OpMergeOnline is a no-op — because a generated group merge
	// every few ops would reset its baseline long before compensation paid
	// for one. Single-table, staged and crash-injected merges stay live, so
	// ticks still meet an open staged merge and the aftermath of a crash.
	// Governor-initiated merges are physical reorganizations of the shard's
	// database, so the worker-count ledger identity must survive them.
	Govern bool
	// Recycle adds a second arm to every cluster: manager planes at one and
	// four workers whose shard managers each have their own recycler cache
	// and decision ledger. Every check also runs through them: results must
	// stay byte-identical to the oracle, Stats must match across worker
	// counts, and the recycled ledgers — which also hold
	// recycle-hit/topup/admit/evict decisions — must be byte-identical too,
	// across merges, aborted merges, crashes, and aging.
	Recycle bool
}

// SmallERP is the default laptop-second scale schema for differential runs.
func SmallERP(seed int64) workload.ERPConfig {
	return workload.ERPConfig{
		Headers:        40,
		ItemsPerHeader: 3,
		Categories:     5,
		Languages:      []string{"ENG", "GER"},
		Years:          3,
		BaseYear:       2012,
		Seed:           seed,
	}
}

// HotColdERP is the two-partition variant, enabling aging operations.
func HotColdERP(seed int64) workload.ERPConfig {
	cfg := SmallERP(seed)
	cfg.ColdShare = 0.5
	return cfg
}

// Generate derives a deterministic operation sequence from the seed.
func Generate(seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, 0, n+1)
	for i := 0; i < n; i++ {
		var k OpKind
		switch p := rng.Intn(100); {
		case p < 28:
			k = OpInsert
		case p < 43:
			k = OpUpdate
		case p < 53:
			k = OpDelete
		case p < 66:
			k = OpMergeOnline
		case p < 72:
			k = OpBeginMerge
		case p < 78:
			k = OpFinishMerge
		case p < 80:
			k = OpAbortMerge
		case p < 83:
			k = OpCrashMerge
		case p < 86:
			k = OpAge
		default:
			k = OpCheck
		}
		ops = append(ops, Op{Kind: k, A: rng.Int63(), B: rng.Int63(), C: rng.Int63()})
	}
	return ops
}

// checksToRepeats turns every check of ops into a repeat with the same
// operands, in place, and returns ops.
func checksToRepeats(ops []Op) []Op {
	for i := range ops {
		if ops[i].Kind == OpCheck {
			ops[i].Kind = OpRepeat
		}
	}
	return ops
}

type object struct {
	hid   int64
	items []int64
	// gone lists items deleted on their own (OpOwnWrites); nextItemID
	// still counts them.
	gone  []int64
	alive bool
}

// objects is a run's view of the business objects it has written, in
// creation order.
type objects []object

// bulkObjects reconstructs the bulk-loaded objects: header ids and item ids
// are assigned sequentially by the loader, identically on every database.
func bulkObjects(cfg workload.ERPConfig) objects {
	var objs objects
	item := int64(1)
	for h := int64(1); h <= int64(cfg.Headers); h++ {
		o := object{hid: h, alive: true}
		for j := 0; j < cfg.ItemsPerHeader; j++ {
			o.items = append(o.items, item)
			item++
		}
		objs = append(objs, o)
	}
	return objs
}

// pickAlive resolves a raw random value to a live object index, or -1.
func (objs objects) pickAlive(raw int64) int {
	var live []int
	for i := range objs {
		if objs[i].alive {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[raw%int64(len(live))]
}

// nextItemID mirrors the workload generator's item id counter.
func (objs objects) nextItemID() int64 {
	var top int64
	for _, o := range objs {
		for _, id := range o.items {
			top = max(top, id)
		}
		for _, id := range o.gone {
			top = max(top, id)
		}
	}
	return top + 1
}

type stagedKey struct {
	table string
	part  int
}

// shardCounts are the cluster sizes of every run: one shard (an unsharded
// database, and the oracle's), an even split, and more shards than the
// small schema comfortably fills, so some shards stay near-empty and the
// whole-shard prune paths run.
var shardCounts = [...]int{1, 2, 8}

// workers are the executor worker counts of each arm's two manager planes.
var workers = [2]int{1, 4}

// txTables are the transactional tables: merged as a group, aged together.
var txTables = []string{workload.THeader, workload.TItem}

// arm is one cache configuration over a cluster, at each worker count. Its
// planes share all state that may legally influence results (none) and
// stats (the configuration), so their Stats and canonical ledgers must
// match.
type arm struct {
	name string
	s    [len(workers)]*shard.Sharded
}

// cluster is one database of a run: the ERP workload over a shard cluster,
// observed by its arms.
type cluster struct {
	*workload.ShardedERP
	arms []arm
}

// owner is the database of the shard holding the object with header id hid.
func (c *cluster) owner(hid int64) *table.DB {
	return c.Cluster.Shard(c.Cluster.ShardFor(hid)).DB
}

// corrupt perturbs the seed-chosen cached partial in every shard manager of
// every arm: silent until a check compares with the oracle.
func (c *cluster) corrupt(seed int64) {
	for _, a := range c.arms {
		for _, s := range a.s {
			for _, m := range s.Managers() {
				m.CorruptEntryForVerify(seed)
			}
		}
	}
}

// Runner executes an operation sequence against one cluster per entry of
// shardCounts. All clusters are built from the same config and seed and
// consume the deterministic row generator in lockstep, so they hold the
// same logical rows; every check asserts each arm of each cluster returns
// rows byte-identical to the uncached oracle.
type Runner struct {
	clusters []*cluster
	objs     objects
	// staged holds the open staged merges, one per shard of every cluster.
	staged map[stagedKey][]*table.OnlineMerge
	// Outputs collects the rendered result of every query check (and of
	// both reads of a repeat), in order — the unit of cross-run comparison.
	Outputs []string
	cfg     Config
	// repeats counts per cluster the repeat ops whose second read it served,
	// per in-between case.
	repeats [len(shardCounts)][numRepeatCases]int
}

// NewRunner builds the clusters and their manager planes for one run.
func NewRunner(cfg Config) (*Runner, error) {
	r := &Runner{
		objs:   bulkObjects(cfg.ERP),
		staged: make(map[stagedKey][]*table.OnlineMerge),
		cfg:    cfg,
	}
	for _, n := range shardCounts {
		serp, err := workload.BuildShardedERP(cfg.ERP, n)
		if err != nil {
			return nil, err
		}
		for _, sh := range serp.Cluster.Shards() {
			if _, err := sh.DB.Create(table.Schema{
				Name: sideTable,
				Cols: []table.ColumnDef{{Name: "NoteID", Kind: column.Int64}},
			}); err != nil {
				return nil, err
			}
		}
		// Unlimited capacity and zero admission threshold keep the entry
		// population a pure function of the op sequence. Every shard
		// manager records into its own decision ledger; Run asserts an
		// arm's streams are byte-identical in canonical form — cache
		// decisions, like results, must not depend on the worker count. A
		// recycler template gives every shard manager a private, unlimited
		// recycler for the same reason.
		plane := func(w int, rc *recycler.Cache) *shard.Sharded {
			return shard.New(serp.Cluster, shard.Config{
				Manager: core.Config{Workers: w, Recycler: rc},
				Metrics: obs.NewRegistry(),
				Ledgers: true,
			})
		}
		c := &cluster{ShardedERP: serp}
		rcs := []*recycler.Cache{nil}
		if cfg.Recycle {
			rcs = append(rcs, recycler.New(recycler.Config{Metrics: obs.NewRegistry()}))
		}
		for _, rc := range rcs {
			a := arm{name: "plain"}
			if rc != nil {
				a.name = "recycled"
			}
			for wi, w := range workers {
				a.s[wi] = plane(w, rc)
			}
			c.arms = append(c.arms, a)
		}
		if cfg.Govern {
			c.arms[0].s[0].Govern(core.GovernorConfig{Tables: txTables})
		}
		r.clusters = append(r.clusters, c)
	}
	return r, nil
}

// Run executes the sequence; any correctness violation is returned as an
// error naming the failing op index.
func (r *Runner) Run(ops []Op) error {
	for i, op := range ops {
		if err := r.apply(op); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, op.Kind, err)
		}
		// One synchronous tick per governed shard per op: governor merges
		// land at op boundaries, never concurrent with a check.
		for _, c := range r.clusters {
			if _, err := c.arms[0].s[0].TickAll(); err != nil {
				return fmt.Errorf("op %d governor tick, shards=%d: %w", i, c.Cluster.NumShards(), err)
			}
		}
	}
	// Close any merge the sequence left open, then do a final sweep of
	// every query shape so each run ends fully checked.
	for _, k := range r.stagedKeys() {
		if err := r.closeStaged(k, false); err != nil {
			return fmt.Errorf("final staged finish: %w", err)
		}
	}
	for shape := int64(0); shape < 4; shape++ {
		if err := r.check(Op{Kind: OpCheck, A: shape, B: 1, C: 0}); err != nil {
			return fmt.Errorf("final check: %w", err)
		}
	}
	return r.compareLedgers()
}

// compareLedgers asserts the worker-count independence of the decision
// stream: the same op sequence must leave byte-identical canonical ledgers
// in an arm's planes, and replaying each shard's ledger through the
// shadow-cache advisor under the deterministic rows cost model must produce
// byte-identical reports.
func (r *Runner) compareLedgers() error {
	opts := advisor.Options{Cost: advisor.CostRows, Metrics: obs.NewRegistry()}
	advice := func(s *shard.Sharded) string {
		var b strings.Builder
		for _, m := range s.Managers() {
			b.WriteString(advisor.Analyze(m.Ledger().Snapshot(), opts).CanonString())
		}
		return b.String()
	}
	for _, c := range r.clusters {
		for _, a := range c.arms {
			if l1, l4 := a.s[0].CanonLedgers(), a.s[1].CanonLedgers(); l1 != l4 {
				return fmt.Errorf("shards=%d %s: decision ledgers diverged across worker counts:%s",
					c.Cluster.NumShards(), a.name, firstDiffLine(l1, l4))
			}
			if a1, a4 := advice(a.s[0]), advice(a.s[1]); a1 != a4 {
				return fmt.Errorf("shards=%d %s: advisor reports diverged across worker counts:%s",
					c.Cluster.NumShards(), a.name, firstDiffLine(a1, a4))
			}
		}
	}
	return nil
}

// firstDiffLine locates the first line where two canonical renderings
// disagree, for failure reports.
func firstDiffLine(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		get := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "<missing>"
		}
		if get(la) != get(lb) {
			return fmt.Sprintf("\n line %d:\n  w1: %s\n  w4: %s", i, get(la), get(lb))
		}
	}
	return "\n (lengths differ only)"
}

// tableOf picks a transactional table by a raw random value's parity.
func tableOf(raw int64) string {
	if raw%2 == 0 {
		return workload.TItem
	}
	return workload.THeader
}

// apply replays one operation on every cluster: writes on the shard owning
// the object, group merges on every shard concurrently, every other merge
// and aging shard by shard.
func (r *Runner) apply(op Op) error {
	switch op.Kind {
	case OpInsert:
		w, idx, err := r.insertIn(int(op.A%3) + 1)
		if err != nil {
			return err
		}
		w.commit()
		r.objs[idx].alive = true

	case OpUpdate:
		if idx := r.objs.pickAlive(op.A); idx >= 0 {
			o := r.objs[idx]
			return r.reprice(o.hid, o.items[op.B%int64(len(o.items))], op.C)
		}

	case OpDelete:
		if idx := r.objs.pickAlive(op.A); idx >= 0 {
			return r.deleteObject(&r.objs[idx])
		}

	case OpMergeOnline:
		if r.cfg.DisableMerges || r.mergeActive(txTables...) {
			return nil
		}
		if op.A%2 == 0 {
			if r.cfg.Govern {
				return nil // the governors own group merges
			}
			for _, c := range r.clusters {
				if err := c.Cluster.MergeTablesOnlineConcurrent(false, txTables...); err != nil {
					return fmt.Errorf("shards=%d: %w", c.Cluster.NumShards(), err)
				}
			}
			return nil
		}
		name := tableOf(op.B)
		part := int(op.C) % r.parts(name)
		return r.eachDB(func(db *table.DB) error {
			_, err := db.MergeOnline(name, part, false)
			return err
		})

	case OpBeginMerge:
		name := tableOf(op.A)
		if r.cfg.DisableMerges || r.mergeActive(name) {
			return nil
		}
		k := stagedKey{name, int(op.B) % r.parts(name)}
		return r.eachDB(func(db *table.DB) error {
			om, err := db.StartOnlineMerge(name, k.part, false)
			if err != nil {
				return err
			}
			if err := om.Build(); err != nil {
				om.Abort()
				return err
			}
			r.staged[k] = append(r.staged[k], om)
			return nil
		})

	case OpFinishMerge, OpAbortMerge:
		if keys := r.stagedKeys(); len(keys) > 0 {
			return r.closeStaged(keys[op.A%int64(len(keys))], op.Kind == OpAbortMerge)
		}

	case OpCrashMerge:
		if r.cfg.DisableMerges || r.mergeActive(txTables...) {
			return nil
		}
		points := []table.FaultPoint{
			table.FaultMergePrepared, table.FaultMergeBuild,
			table.FaultMergeBeforeSwap, table.FaultMergeAfterSwap,
		}
		point := points[op.B%int64(len(points))]
		name := tableOf(op.C)
		return r.eachDB(func(db *table.DB) error {
			f := table.NewFaults(op.A)
			f.Set(point, table.FaultSpec{Prob: 1, Crash: true})
			db.SetFaults(f)
			_, err := db.MergeOnline(name, int(op.C)%r.parts(name), false)
			db.SetFaults(nil)
			if !errors.Is(err, table.ErrInjected) {
				return fmt.Errorf("crash injection at %v: got %v, want ErrInjected", point, err)
			}
			return nil
		})

	case OpAge:
		if r.cfg.DisableMerges || r.cfg.ERP.ColdShare <= 0 || r.mergeActive(txTables...) {
			return nil
		}
		// Aging requires empty deltas in every partition: each shard drains
		// them with one group merge first, then moves both tables'
		// boundaries together, to keep objects co-partitioned, to a split
		// below its own watermark.
		return r.eachDB(func(db *table.DB) error {
			if err := db.MergeTablesOnline(false, txTables...); err != nil {
				return err
			}
			cold := db.MustTable(workload.THeader).Partitions()[0]
			wm := int64(db.Txns().Watermark())
			if wm <= cold.Hi {
				return nil
			}
			split := cold.Hi + 1 + op.A%(wm-cold.Hi)
			for _, name := range txTables {
				if err := db.AgeOnline(name, split); err != nil {
					return err
				}
			}
			return nil
		})

	case OpCheck:
		return r.check(op)

	case OpRepeat:
		return r.repeat(op)

	case OpOwnWrites:
		return r.ownWrites(op)

	case OpCorrupt:
		for _, c := range r.clusters {
			c.corrupt(op.A)
		}
	}
	return nil
}

// eachDB runs f on every shard database of every cluster, in order, and
// stops at the first error.
func (r *Runner) eachDB(f func(db *table.DB) error) error {
	for _, c := range r.clusters {
		for _, sh := range c.Cluster.Shards() {
			if err := f(sh.DB); err != nil {
				return fmt.Errorf("shards=%d shard %d: %w", c.Cluster.NumShards(), sh.Index, err)
			}
		}
	}
	return nil
}

// mergeActive reports whether an online merge of a named table is open on
// any shard.
func (r *Runner) mergeActive(names ...string) bool {
	for _, c := range r.clusters {
		for _, sh := range c.Cluster.Shards() {
			for _, name := range names {
				if sh.DB.MergeActive(name) {
					return true
				}
			}
		}
	}
	return false
}

// writer is one logical write transaction: an open txn per cluster, each on
// the shard that owns the written object. Its txns commit or abort
// together, so every cluster holds the same logical rows.
type writer []*txn.Txn

func (w writer) commit() {
	for _, tx := range w {
		tx.Commit()
	}
}

func (w writer) abort() {
	for _, tx := range w {
		tx.Abort()
	}
}

// begin opens a writer for the object with header id hid and runs f in each
// cluster's txn, on the owning shard's database db. If f fails anywhere it
// aborts the writer.
func (r *Runner) begin(hid int64, f func(c *cluster, db *table.DB, tx *txn.Txn) error) (writer, error) {
	w := make(writer, 0, len(r.clusters))
	for _, c := range r.clusters {
		db := c.owner(hid)
		w = append(w, db.Txns().Begin())
		if err := f(c, db, w[len(w)-1]); err != nil {
			w.abort()
			return nil, fmt.Errorf("shards=%d: %w", c.Cluster.NumShards(), err)
		}
	}
	return w, nil
}

// write is begin followed by a commit.
func (r *Runner) write(hid int64, f func(c *cluster, db *table.DB, tx *txn.Txn) error) error {
	w, err := r.begin(hid, f)
	if err == nil {
		w.commit()
	}
	return err
}

// insertIn writes the next business object with the given number of items
// in a writer left open, and records it — not alive until the caller
// commits.
func (r *Runner) insertIn(items int) (writer, int, error) {
	o := object{hid: r.clusters[0].NextHeaderID()}
	start := r.objs.nextItemID()
	w, err := r.begin(o.hid, func(c *cluster, _ *table.DB, tx *txn.Txn) error {
		return c.InsertBusinessObjectIn(tx, items)
	})
	if err != nil {
		return nil, -1, err
	}
	for j := 0; j < items; j++ {
		o.items = append(o.items, start+int64(j))
	}
	r.objs = append(r.objs, o)
	return w, len(r.objs) - 1, nil
}

// price is the Price assignment of an update: integer-valued, so the
// arithmetic stays exact.
func price(raw int64) map[string]column.Value {
	return map[string]column.Value{"Price": column.FloatV(float64(1 + raw%1000))}
}

// reprice updates one item of the object with header id hid in its own
// writer.
func (r *Runner) reprice(hid, itemID, raw int64) error {
	return r.write(hid, func(_ *cluster, db *table.DB, tx *txn.Txn) error {
		return db.MustTable(workload.TItem).Update(tx, itemID, price(raw))
	})
}

// deleteObject deletes a live business object — header and items in one
// writer, preserving the matching dependency — and marks it dead.
func (r *Runner) deleteObject(o *object) error {
	err := r.write(o.hid, func(_ *cluster, db *table.DB, tx *txn.Txn) error {
		for _, itemID := range o.items {
			if err := db.MustTable(workload.TItem).Delete(tx, itemID); err != nil {
				return err
			}
		}
		return db.MustTable(workload.THeader).Delete(tx, o.hid)
	})
	if err == nil {
		o.alive = false
	}
	return err
}

// stagedKeys lists open staged merges in a deterministic order.
func (r *Runner) stagedKeys() []stagedKey {
	keys := make([]stagedKey, 0, len(r.staged))
	for k := range r.staged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].part < keys[j].part
	})
	return keys
}

// closeStaged swaps the staged merge k on every shard, or rolls it back.
func (r *Runner) closeStaged(k stagedKey, abort bool) error {
	oms := r.staged[k]
	delete(r.staged, k)
	for _, om := range oms {
		if abort {
			om.Abort()
		} else if _, err := om.Finish(); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) parts(name string) int {
	return len(r.clusters[0].Cluster.Shard(0).DB.MustTable(name).Partitions())
}

// check runs one query shape through every strategy on every arm and
// compares everything against the uncached oracle.
func (r *Runner) check(op Op) error {
	q := r.pickQuery(op)
	want, err := r.oracleRows(q, nil)
	if err != nil {
		return err
	}
	for _, strat := range core.Strategies() {
		if _, err := r.serve(q, strat, want, nil); err != nil {
			return err
		}
	}
	return nil
}

// oracleRows renders q's uncached answer on the one-shard cluster — at snap
// when it is not nil, else at the current snapshot — and records it in
// Outputs.
func (r *Runner) oracleRows(q *query.Query, snap *txn.Snapshot) (string, error) {
	m := r.clusters[0].arms[0].s[0].Manager(0)
	var res *query.AggTable
	var err error
	if snap != nil {
		res, _, err = m.ExecuteAt(q, *snap, core.Uncached)
	} else {
		res, _, err = m.Execute(q, core.Uncached)
	}
	if err != nil {
		return "", err
	}
	want := renderRows(res)
	r.Outputs = append(r.Outputs, want)
	return want, nil
}

// serve runs q under strat on every arm of every cluster and compares each
// result with the oracle's rendering want. At snap, when it is not nil, only
// the one-shard cluster serves, through its shard-0 managers: a scatter has
// no snapshot vector. Stats are compared within an arm: recycled executions
// legitimately scan fewer rows, and prune and subjoin tallies legitimately
// differ across shard counts. It returns every execution's ExecInfo, per
// cluster.
func (r *Runner) serve(q *query.Query, strat core.Strategy, want string, snap *txn.Snapshot) ([][]shard.ExecInfo, error) {
	clusters := r.clusters
	if snap != nil {
		clusters = clusters[:1]
	}
	infos := make([][]shard.ExecInfo, len(clusters))
	for ci, c := range clusters {
		for _, a := range c.arms {
			var ref query.Stats
			for wi, s := range a.s {
				res, info, err := execute(s, q, strat, snap)
				where := fmt.Sprintf("shards=%d %s %v workers=%d", c.Cluster.NumShards(), a.name, strat, workers[wi])
				if err != nil {
					return nil, fmt.Errorf("%s: %w", where, err)
				}
				if got := renderRows(res); got != want {
					return nil, fmt.Errorf("%s diverged from oracle\n got: %s\nwant: %s", where, got, want)
				}
				// The executor guarantees worker-count-independent results;
				// the deterministic subjoin counters must agree too.
				if wi == 0 {
					ref = info.Stats
				} else if info.Stats != ref {
					return nil, fmt.Errorf("%s: stats diverged across worker counts:\n w1: %+v\n w4: %+v", where, ref, info.Stats)
				}
				infos[ci] = append(infos[ci], info)
			}
		}
	}
	return infos, nil
}

// execute runs q under strat on s: scattered, or at snap on the shard-0
// manager, its ExecInfo then that of a one-shard scatter.
func execute(s *shard.Sharded, q *query.Query, strat core.Strategy, snap *txn.Snapshot) (*query.AggTable, shard.ExecInfo, error) {
	if snap == nil {
		return s.Execute(q, strat)
	}
	res, info, err := s.Manager(0).ExecuteAt(q, *snap, strat)
	return res, shard.ExecInfo{
		Strategy:  strat,
		Scattered: 1,
		Reasons:   []shard.PruneReason{shard.PruneNone},
		PerShard:  []core.ExecInfo{info},
		Stats:     info.Stats,
	}, err
}

func (r *Runner) pickQuery(op Op) *query.Query {
	cfg, erp := r.cfg.ERP, r.clusters[0]
	switch op.A % 4 {
	case 0:
		year := cfg.BaseYear + int(op.B)%cfg.Years
		lang := cfg.Languages[op.C%int64(len(cfg.Languages))]
		return erp.ProfitQuery(year, lang)
	case 1:
		lo := cfg.BaseYear + int(op.B)%cfg.Years
		hi := lo + int(op.C)%(cfg.Years-(lo-cfg.BaseYear))
		return erp.YearRangeQuery(lo, hi)
	case 2:
		return erp.HeaderCountQuery()
	default:
		return erp.ItemRevenueQuery()
	}
}

func renderRows(a *query.AggTable) string {
	return fmt.Sprintf("%+v", a.Rows())
}

// RunSeed builds a fresh runner and executes the seed's generated sequence.
func RunSeed(cfg Config, seed int64, ops []Op) ([]string, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	err = r.Run(ops)
	return r.Outputs, err
}

// Shrink minimizes a failing sequence by greedy chunk removal: it
// repeatedly tries deleting chunks of halving size and keeps every
// deletion under which the failure (any failure) reproduces.
func Shrink(cfg Config, seed int64, ops []Op) []Op {
	fails := func(candidate []Op) bool {
		_, err := RunSeed(cfg, seed, candidate)
		return err != nil
	}
	if !fails(ops) {
		return ops
	}
	cur := append([]Op(nil), ops...)
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			cand := append(append([]Op(nil), cur[:start]...), cur[start+chunk:]...)
			if fails(cand) {
				cur = cand // keep the deletion; retry the same offset
			} else {
				start += chunk
			}
		}
	}
	return cur
}

// Format renders an op sequence for failure reports and artifacts.
func Format(seed int64, ops []Op) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d ops=%d\n", seed, len(ops))
	for i, op := range ops {
		fmt.Fprintf(&b, "%3d %-14s A=%d B=%d C=%d\n", i, op.Kind, op.A, op.B, op.C)
	}
	return b.String()
}

// ParseProgram is Format's inverse: it parses a persisted artifact back
// into its seed and operation sequence, so a reproducer written by the
// online shadow verifier (or a shrunk failure seed) replays with RunSeed.
func ParseProgram(s string) (int64, []Op, error) {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) == 0 {
		return 0, nil, fmt.Errorf("difftest: empty program")
	}
	var seed int64
	var n int
	if _, err := fmt.Sscanf(lines[0], "seed=%d ops=%d", &seed, &n); err != nil {
		return 0, nil, fmt.Errorf("difftest: bad program header %q: %w", lines[0], err)
	}
	ops := make([]Op, 0, len(lines)-1)
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) != 5 {
			return 0, nil, fmt.Errorf("difftest: bad program line %q", line)
		}
		if f[1] == "merge-offline" {
			// Reproducers saved while an offline merge existed replay it
			// as what it was: the grouped merge of both tables (even A).
			f[1], f[2] = OpMergeOnline.String(), "A=0"
		}
		var op Op
		kind := -1
		for k, name := range opKindNames {
			if name == f[1] {
				kind = k
				break
			}
		}
		if kind < 0 {
			return 0, nil, fmt.Errorf("difftest: unknown op kind %q", f[1])
		}
		op.Kind = OpKind(kind)
		for i, dst := range []*int64{&op.A, &op.B, &op.C} {
			if _, err := fmt.Sscanf(f[2+i], string("ABC"[i])+"=%d", dst); err != nil {
				return 0, nil, fmt.Errorf("difftest: bad program field %q: %w", f[2+i], err)
			}
		}
		ops = append(ops, op)
	}
	if len(ops) != n {
		return 0, nil, fmt.Errorf("difftest: program header claims %d ops, found %d", n, len(ops))
	}
	return seed, ops, nil
}
