// Package difftest is a randomized differential test harness for the
// aggregate cache: seeded generators produce mixed workloads of inserts,
// updates, deletes, atomic and staged delta merges, fault-injected
// crashes, and data aging over the ERP schema, and every embedded query
// check asserts that all cached execution strategies — at one and at four
// executor workers, with and without the cross-query recycler cache —
// return results byte-identical to the uncached oracle.
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
	"time"

	"aggcache/internal/advisor"
	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/recycler"
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
	numOpKinds
)

var opKindNames = [numOpKinds]string{"insert", "update", "delete",
	"merge-online", "begin-merge", "finish-merge",
	"abort-merge", "crash-merge", "age", "check", "corrupt", "repeat"}

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
	// Govern attaches a maintenance governor driven by a synthetic clock:
	// one deterministic Tick after every applied op (no background
	// goroutine), delta-rows trigger only, aging off. Governor-initiated
	// merges are physical reorganizations of the shared database, so the
	// worker-count ledger identity must survive them.
	Govern bool
	// Recycle adds a second pair of managers (one and four workers), each
	// with its own recycler cache and decision ledger. Every check also runs
	// through them: results must stay byte-identical to the oracle, Stats
	// must match across worker counts, and the recycled pair's canonical
	// ledgers — which now include recycle-hit/topup/admit/evict decisions —
	// must be byte-identical too, across merges, aborted merges, crashes,
	// and aging.
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
	alive bool
}

type stagedKey struct {
	table string
	part  int
}

// Runner executes an operation sequence against one ERP database observed
// by two cache managers (one single-worker, one four-worker).
type Runner struct {
	erp        *workload.ERP
	m1, m4     *core.Manager
	led1, led4 *obs.Ledger
	// Recycled pair (nil unless cfg.Recycle): same shared database, own
	// recycler caches and ledgers.
	mr1, mr4     *core.Manager
	ledR1, ledR4 *obs.Ledger
	objs         []object
	staged       map[stagedKey]*table.OnlineMerge
	// gov ticks on a synthetic clock when cfg.Govern is set; govClock is
	// the fake "now" advanced a fixed step per op, so governor decisions
	// are a pure function of the op sequence.
	gov      *core.Governor
	govClock time.Time
	// Outputs collects the rendered result of every query check (and of
	// both reads of a repeat), in order — the unit of cross-run comparison.
	Outputs []string
	cfg     Config
	checks  int
	// repeats counts the executed repeat ops per in-between case.
	repeats [numRepeatCases]int
}

// NewRunner builds the database and managers for one run.
func NewRunner(cfg Config) (*Runner, error) {
	erp, err := workload.BuildERP(cfg.ERP)
	if err != nil {
		return nil, err
	}
	if _, err := erp.DB.Create(table.Schema{
		Name: sideTable,
		Cols: []table.ColumnDef{{Name: "NoteID", Kind: column.Int64}},
	}); err != nil {
		return nil, err
	}
	// Unlimited capacity and zero admission threshold keep the entry
	// population a pure function of the op sequence. Each manager records
	// into its own decision ledger; Run asserts the two streams are
	// byte-identical in canonical form — cache decisions, like results,
	// must not depend on the worker count.
	led1, led4 := obs.NewLedger(0), obs.NewLedger(0)
	mk := func(workers int, led *obs.Ledger, rc *recycler.Cache) *core.Manager {
		return core.NewManager(erp.DB, erp.Reg, core.Config{
			Workers:  workers,
			Metrics:  obs.NewRegistry(),
			Ledger:   led,
			Recycler: rc,
		})
	}
	r := &Runner{
		erp:    erp,
		m1:     mk(1, led1, nil),
		m4:     mk(4, led4, nil),
		led1:   led1,
		led4:   led4,
		staged: make(map[stagedKey]*table.OnlineMerge),
		cfg:    cfg,
	}
	if cfg.Recycle {
		// Each recycled manager gets a private cache so the pair's recycler
		// states evolve as identical pure functions of the op sequence —
		// unlimited capacity for the same reason the aggregate cache runs
		// unlimited here.
		r.ledR1, r.ledR4 = obs.NewLedger(0), obs.NewLedger(0)
		r.mr1 = mk(1, r.ledR1, recycler.New(recycler.Config{Metrics: obs.NewRegistry()}))
		r.mr4 = mk(4, r.ledR4, recycler.New(recycler.Config{Metrics: obs.NewRegistry()}))
	}
	if cfg.Govern {
		// Delta-rows trigger only: growth, compensation-p99, and SLO burn
		// depend on wall-clock timings and would make decisions
		// non-deterministic. The synthetic clock steps 100ms per op, so the
		// 300ms cooldown allows an action every few ops at most.
		r.gov = core.NewGovernor(r.m1, core.GovernorConfig{
			Tables:        []string{workload.THeader, workload.TItem},
			DeltaRowsHigh: 24,
			Cooldown:      300 * time.Millisecond,
			Rotate:        500 * time.Millisecond,
		})
		r.govClock = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	// Reconstruct the bulk-loaded objects: header ids and item ids are
	// assigned sequentially by the loader.
	item := int64(1)
	for h := int64(1); h <= int64(cfg.ERP.Headers); h++ {
		o := object{hid: h, alive: true}
		for j := 0; j < cfg.ERP.ItemsPerHeader; j++ {
			o.items = append(o.items, item)
			item++
		}
		r.objs = append(r.objs, o)
	}
	return r, nil
}

// pickAlive resolves a raw random value to a live object index, or -1.
func (r *Runner) pickAlive(raw int64) int {
	var live []int
	for i := range r.objs {
		if r.objs[i].alive {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[raw%int64(len(live))]
}

func (r *Runner) mergeActive() bool {
	return r.erp.DB.MergeActive(workload.THeader) || r.erp.DB.MergeActive(workload.TItem)
}

// Run executes the sequence; any correctness violation is returned as an
// error naming the failing op index.
func (r *Runner) Run(ops []Op) error {
	for i, op := range ops {
		if err := r.apply(op); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, op.Kind, err)
		}
		if r.gov != nil {
			// One synchronous tick per op on the synthetic clock: governor
			// merges land at op boundaries, never concurrent with a check.
			r.govClock = r.govClock.Add(100 * time.Millisecond)
			r.gov.Tick(r.govClock)
		}
	}
	// Close any merge the sequence left open, then do a final sweep of
	// every query shape so each run ends fully checked.
	for _, k := range r.stagedKeys() {
		om := r.staged[k]
		delete(r.staged, k)
		if _, err := om.Finish(); err != nil {
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
// in the one- and four-worker managers, and replaying both through the
// shadow-cache advisor under the deterministic rows cost model must produce
// byte-identical reports.
func (r *Runner) compareLedgers() error {
	c1 := obs.CanonLedger(r.led1.Snapshot())
	c4 := obs.CanonLedger(r.led4.Snapshot())
	if c1 != c4 {
		return fmt.Errorf("decision ledgers diverged across worker counts:%s",
			firstDiffLine(c1, c4))
	}
	opts := advisor.Options{Cost: advisor.CostRows, Metrics: obs.NewRegistry()}
	a1 := advisor.Analyze(r.led1.Snapshot(), opts).CanonString()
	a4 := advisor.Analyze(r.led4.Snapshot(), opts).CanonString()
	if a1 != a4 {
		return fmt.Errorf("advisor reports diverged across worker counts:%s",
			firstDiffLine(a1, a4))
	}
	if r.ledR1 != nil {
		// The recycled pair's ledgers carry recycle-hit/topup/admit/evict
		// decisions on top of the cache stream; they too must be a pure
		// function of the op sequence, not the worker count.
		cr1 := obs.CanonLedger(r.ledR1.Snapshot())
		cr4 := obs.CanonLedger(r.ledR4.Snapshot())
		if cr1 != cr4 {
			return fmt.Errorf("recycled decision ledgers diverged across worker counts:%s",
				firstDiffLine(cr1, cr4))
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

func (r *Runner) apply(op Op) error {
	db := r.erp.DB
	switch op.Kind {
	case OpInsert:
		tx := db.Txns().Begin()
		idx, err := r.insertIn(tx, int(op.A%3)+1)
		if err != nil {
			tx.Abort()
			return err
		}
		tx.Commit()
		r.objs[idx].alive = true

	case OpUpdate:
		idx := r.pickAlive(op.A)
		if idx < 0 {
			return nil
		}
		o := r.objs[idx]
		itemID := o.items[op.B%int64(len(o.items))]
		price := float64(1 + op.C%1000) // integer-valued: exact arithmetic
		return r.reprice(itemID, price)

	case OpDelete:
		if idx := r.pickAlive(op.A); idx >= 0 {
			return r.deleteObject(idx)
		}

	case OpMergeOnline:
		if r.cfg.DisableMerges || r.mergeActive() {
			return nil
		}
		if op.A%2 == 0 {
			return db.MergeTablesOnline(false, workload.THeader, workload.TItem)
		}
		name := workload.THeader
		if op.B%2 == 0 {
			name = workload.TItem
		}
		part := int(op.C) % r.parts(name)
		_, err := db.MergeOnline(name, part, false)
		return err

	case OpBeginMerge:
		if r.cfg.DisableMerges {
			return nil
		}
		name := workload.THeader
		if op.A%2 == 0 {
			name = workload.TItem
		}
		if db.MergeActive(name) {
			return nil
		}
		part := int(op.B) % r.parts(name)
		om, err := db.StartOnlineMerge(name, part, false)
		if err != nil {
			return err
		}
		if err := om.Build(); err != nil {
			om.Abort()
			return err
		}
		r.staged[stagedKey{name, part}] = om

	case OpFinishMerge:
		if keys := r.stagedKeys(); len(keys) > 0 {
			k := keys[op.A%int64(len(keys))]
			om := r.staged[k]
			delete(r.staged, k)
			_, err := om.Finish()
			return err
		}

	case OpAbortMerge:
		if keys := r.stagedKeys(); len(keys) > 0 {
			k := keys[op.A%int64(len(keys))]
			om := r.staged[k]
			delete(r.staged, k)
			om.Abort()
		}

	case OpCrashMerge:
		if r.cfg.DisableMerges || r.mergeActive() {
			return nil
		}
		points := []table.FaultPoint{
			table.FaultMergePrepared, table.FaultMergeBuild,
			table.FaultMergeBeforeSwap, table.FaultMergeAfterSwap,
		}
		point := points[op.B%int64(len(points))]
		f := table.NewFaults(op.A)
		f.Set(point, table.FaultSpec{Prob: 1, Crash: true})
		db.SetFaults(f)
		name := workload.THeader
		if op.C%2 == 0 {
			name = workload.TItem
		}
		_, err := db.MergeOnline(name, int(op.C)%r.parts(name), false)
		db.SetFaults(nil)
		if !errors.Is(err, table.ErrInjected) {
			return fmt.Errorf("crash injection at %v: got %v, want ErrInjected", point, err)
		}

	case OpAge:
		if r.cfg.DisableMerges || r.cfg.ERP.ColdShare <= 0 || r.mergeActive() {
			return nil
		}
		// Aging requires empty deltas in every partition; merge them all
		// first, then move both tables' boundaries together to keep
		// objects co-partitioned.
		for _, name := range []string{workload.THeader, workload.TItem} {
			for part := 0; part < r.parts(name); part++ {
				if _, err := db.MergeOnline(name, part, false); err != nil {
					return err
				}
			}
		}
		cold := db.MustTable(workload.THeader).Partitions()[0]
		wm := int64(db.Txns().Watermark())
		if wm <= cold.Hi {
			return nil
		}
		split := cold.Hi + 1 + op.A%(wm-cold.Hi)
		for _, name := range []string{workload.THeader, workload.TItem} {
			if err := db.AgeOnline(name, split); err != nil {
				return err
			}
		}

	case OpCheck:
		return r.check(op)

	case OpRepeat:
		return r.repeat(op)

	case OpCorrupt:
		// Fault injection: perturb the same entry (chosen by seed over
		// sorted keys) in every manager. The corruption is silent — only a
		// later check's oracle comparison can catch it.
		for _, m := range []*core.Manager{r.m1, r.m4, r.mr1, r.mr4} {
			if m != nil {
				m.CorruptEntryForVerify(op.A)
			}
		}
	}
	return nil
}

// insertIn writes one business object with the given number of items inside
// tx, left open, and records it — not alive until the caller commits.
func (r *Runner) insertIn(tx *txn.Txn, items int) (int, error) {
	o := object{hid: r.erp.NextHeaderID()}
	start := r.nextItemID()
	if err := r.erp.InsertBusinessObjectIn(tx, items); err != nil {
		return -1, err
	}
	for j := 0; j < items; j++ {
		o.items = append(o.items, start+int64(j))
	}
	r.objs = append(r.objs, o)
	return len(r.objs) - 1, nil
}

// deleteObject deletes a live business object: header and items in one
// transaction, preserving the matching dependency.
func (r *Runner) deleteObject(idx int) error {
	db := r.erp.DB
	o := &r.objs[idx]
	tx := db.Txns().Begin()
	for _, itemID := range o.items {
		if err := db.MustTable(workload.TItem).Delete(tx, itemID); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := db.MustTable(workload.THeader).Delete(tx, o.hid); err != nil {
		tx.Abort()
		return err
	}
	tx.Commit()
	o.alive = false
	return nil
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

func (r *Runner) parts(name string) int {
	return len(r.erp.DB.MustTable(name).Partitions())
}

// nextItemID mirrors the workload generator's item id counter.
func (r *Runner) nextItemID() int64 {
	var max int64
	for i := range r.objs {
		for _, id := range r.objs[i].items {
			if id > max {
				max = id
			}
		}
	}
	return max + 1
}

// reprice updates one item's price in its own transaction.
func (r *Runner) reprice(itemID int64, price float64) error {
	db := r.erp.DB
	tx := db.Txns().Begin()
	if err := db.MustTable(workload.TItem).Update(tx, itemID,
		map[string]column.Value{"Price": column.FloatV(price)}); err != nil {
		tx.Abort()
		return err
	}
	tx.Commit()
	return nil
}

// check runs one query shape through every strategy at both worker counts
// and compares everything against the single-worker uncached oracle.
func (r *Runner) check(op Op) error {
	q := r.pickQuery(op)
	want, err := r.oracleRows(q)
	if err != nil {
		return err
	}
	r.checks++
	for _, strat := range core.Strategies() {
		if _, err := r.serve(q, strat, want); err != nil {
			return err
		}
	}
	return nil
}

// oracleRows renders q's uncached answer at the current snapshot and records it
// in Outputs.
func (r *Runner) oracleRows(q *query.Query) (string, error) {
	res, _, err := r.m1.Execute(q, core.Uncached)
	if err != nil {
		return "", err
	}
	want := renderRows(res)
	r.Outputs = append(r.Outputs, want)
	return want, nil
}

// serve runs q under strat on every manager and compares each result with
// the oracle's rendering want. Each mode is a worker-count pair sharing all
// state that may legally influence results (none) and stats (its cache and
// recycler): plain managers always, the recycled pair when enabled. Stats
// are compared within a mode — recycled executions legitimately scan fewer
// rows. It returns every manager's ExecInfo.
func (r *Runner) serve(q *query.Query, strat core.Strategy, want string) ([]core.ExecInfo, error) {
	modes := []struct {
		name   string
		m1, m4 *core.Manager
	}{{"plain", r.m1, r.m4}}
	if r.mr1 != nil {
		modes = append(modes, struct {
			name   string
			m1, m4 *core.Manager
		}{"recycled", r.mr1, r.mr4})
	}
	var infos []core.ExecInfo
	for _, mode := range modes {
		var ref query.Stats
		for wi, m := range []*core.Manager{mode.m1, mode.m4} {
			res, info, err := m.Execute(q, strat)
			if err != nil {
				return nil, fmt.Errorf("%s %v workers=%d: %w", mode.name, strat, 1+3*wi, err)
			}
			if got := renderRows(res); got != want {
				return nil, fmt.Errorf("%s %v workers=%d diverged from oracle\n got: %s\nwant: %s",
					mode.name, strat, 1+3*wi, got, want)
			}
			// The executor guarantees worker-count-independent results;
			// the deterministic subjoin counters must agree too.
			st := canonStats(info.Stats)
			if wi == 0 {
				ref = st
			} else if st != ref {
				return nil, fmt.Errorf("%s %v stats diverged across worker counts:\n w1: %+v\n w4: %+v",
					mode.name, strat, ref, st)
			}
			infos = append(infos, info)
		}
	}
	return infos, nil
}

// canonStats keeps the counters that are deterministic across worker
// counts (drops none today — all Stats fields are counts, not timings).
func canonStats(st query.Stats) query.Stats { return st }

func (r *Runner) pickQuery(op Op) *query.Query {
	cfg := r.cfg.ERP
	switch op.A % 4 {
	case 0:
		year := cfg.BaseYear + int(op.B)%cfg.Years
		lang := cfg.Languages[op.C%int64(len(cfg.Languages))]
		return r.erp.ProfitQuery(year, lang)
	case 1:
		lo := cfg.BaseYear + int(op.B)%cfg.Years
		hi := lo + int(op.C)%(cfg.Years-(lo-cfg.BaseYear))
		return r.erp.YearRangeQuery(lo, hi)
	case 2:
		return r.erp.HeaderCountQuery()
	default:
		return r.erp.ItemRevenueQuery()
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
