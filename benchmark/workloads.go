package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/expr"
	"aggcache/internal/md"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/recycler"
	"aggcache/internal/shard"
	"aggcache/internal/sql"
	"aggcache/internal/table"
	"aggcache/internal/workload"
)

// params is what the command line fixes for one run.
type params struct {
	seed    int64
	scale   float64 // 1 = reference size; tests use a few percent
	seconds int     // target length of the timed phase on the reference host
	nproc   int
}

// spec is one named workload. Timed phases are fixed operation counts, not
// durations: opsPerSec is the reference host's rate when it is quiet, so
// ops = opsPerSec x seconds fills the requested run length and the same seed
// always does the same work. An untraced single-client phase that has not
// finished by the run length stops at the next slice boundary (instance.limit).
type spec struct {
	name    string
	why     string
	clients int
	workers func(nproc int) int
	// opsPerSec sizes the query stream (erp-mixed: business objects per
	// second of the open-loop writer; erp-stagger-recycle: rounds).
	opsPerSec float64
	// timedCounts marks a workload whose engine counters depend on timing
	// even with one client: the cache evicts by profit, and profit is made
	// of measured execution times, so which entries survive differs from
	// run to run. -compare does not demand identical counts there.
	timedCounts bool
	// gated marks the workloads BENCHMARK.json names, the ones the driver
	// runs and holds to the bounds: the single-client, stationary ones, whose
	// timings repeat on the shared reference host. The other three run
	// concurrent goroutines or grow their deltas while timed; ten runs of one
	// build spread past the widest bound the contract allows there, so they
	// are run by hand (-workload <name>, -workload all) and compared with
	// -compare, which reports them as unresolved when they are.
	gated bool
	build func(sp *spec, p params) (*instance, error)
}

func one(int) int       { return 1 }
func all(nproc int) int { return nproc }

// specs is the benchmark: the seven workloads of ISSUE 11, in report order.
var specs = []*spec{
	{name: "erp-hit", clients: 1, workers: one, opsPerSec: 9000, gated: true, build: buildERPHit,
		why: "0.05% delta, 4 warm profit queries: cache hit + MD-pruned compensation; kernels idle, core lookup and result clone dominate"},
	{name: "erp-bigdelta", clients: 1, workers: one, opsPerSec: 180, gated: true, build: buildERPBigDelta,
		why: "30% delta, same queries: delta scan, hash join and AggTable fold dominate; a cache-lookup change must show nothing here"},
	{name: "erp-adhoc-miss", clients: 1, workers: one, opsPerSec: 75, timedCounts: true, build: buildERPAdhoc,
		why: "SQL texts over 180 fingerprints, cache holds 20: misses build entries on main stores, admission and eviction run constantly"},
	{name: "ch-multijoin", clients: 1, workers: all, opsPerSec: 150, gated: true, build: buildCH,
		why: "CH-benCH Q3/Q5/Q9/Q10 with 5% deltas: up to 127 subjoins per query, per-combo MD prefilter, pushdown and the parallel pool"},
	{name: "erp-mixed", clients: 2, workers: one, opsPerSec: 200, build: buildERPMixed,
		why: "1 reader beside an open-loop writer (200 objects/s, 4 online merges) with all watchers on: write-side cost of read-path changes"},
	{name: "erp-shard4", clients: 1, workers: one, opsPerSec: 280, build: buildERPShard,
		why: "4 shards, tid-local delta: shard prune, scatter and ordered fold over full-span, selective and cached queries"},
	{name: "erp-stagger-recycle", clients: 1, workers: one, opsPerSec: 150, build: buildERPStagger,
		why: "items attach to old headers so MD pruning fails: pushdown, full compensation and recycler top-up carry the load"},
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// op is one operation of a single-client timed phase.
type op struct {
	query int    // index into instance.queries; -1 for an insert operation
	sql   string // non-empty: parsed inside the timed operation
	items int    // insert operation: rows to insert
}

// mixedPlan is the open-loop writer of erp-mixed: objects business objects
// in batches on a fixed schedule, with count-triggered synchronised merges.
type mixedPlan struct {
	objects int
	batch   int
	rate    float64 // objects per second
	merges  int
}

// instance is one set-up workload: the engine, its prepared queries and the
// pre-generated operations of the timed phase.
type instance struct {
	spec    *spec
	workers int
	eng     *engine
	// dbs lists every database (one per shard) for row and byte accounting;
	// probeDB/probeReg is the one the post-run layer probes run against.
	dbs      []*table.DB
	probeDB  *table.DB
	probeReg *md.Registry

	queries []prepared
	ops     []op
	limit   time.Duration // wall-clock cap of a single-client timed phase; 0: none
	mixed   *mixedPlan
	rc      *recycler.Cache
	rcReg   *obs.Registry // the recycler's private counters

	// beforeTimed runs after the pre-phase oracle check (which touches the
	// cache) and before timing starts.
	beforeTimed func()
	// insertObjects inserts n business objects through the regular write
	// path and reports the rows written; insertItems inserts n single items
	// attached to old headers (the overlapping-tid regime).
	insertObjects func(n int) (int, error)
	insertItems   func(n int) (int, error)
	// childRow returns a child table and a fresh row of it for the
	// MD-enforcement probe.
	childRow func() (string, []column.Value)
	// mergeTable is the table the merge-phase probe merges.
	mergeTable string
	erpCfg     workload.ERPConfig
}

func scaled(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		v = floor
	}
	return v
}

// opCount turns the requested run length into the fixed operation count.
func (sp *spec) opCount(p params, floor int) int {
	return scaled(int(sp.opsPerSec*float64(p.seconds)), p.scale, floor)
}

// erpConfig is the ERP sizing shared by the ERP workloads: 20 000 business
// objects of 10 items (200 k items in main), scaled down from the issue's
// 30 000 so that five set-ups and a 30 s timed phase per run fit the driver's
// time cap.
func erpConfig(p params) workload.ERPConfig {
	cfg := workload.DefaultERPConfig()
	cfg.Headers = scaled(20000, p.scale, 200)
	cfg.Seed = p.seed
	return cfg
}

// erpRotation is the 4-query profit rotation (year x language). Three of
// the four read the current fiscal year, where every new object lands, and
// one reads the year before: the median and the p95 both fall inside the
// larger class instead of on the boundary between two.
func erpRotation(erp *workload.ERP) []prepared {
	cfg := erp.Cfg
	cur := cfg.BaseYear + cfg.Years - 1
	mk := func(year int, lang string) prepared {
		return prepared{name: fmt.Sprintf("profit-%d-%s", year, lang),
			q: erp.ProfitQuery(year, lang), strat: core.CachedFullPruning}
	}
	return []prepared{
		mk(cur, cfg.Languages[0]), mk(cur, cfg.Languages[1]),
		mk(cur, cfg.Languages[2]), mk(cur-1, cfg.Languages[0]),
	}
}

func rotationOps(n, queries int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{query: i % queries}
	}
	return ops
}

// warm executes every prepared query once, untimed by the phase but inside
// set-up: it builds the cache entries.
func (inst *instance) warm() error {
	var a acc
	for i := range inst.queries {
		inst.eng.exec(&a, &inst.queries[i], "")
	}
	if a.errs > 0 {
		return fmt.Errorf("%s: %d warm-up queries failed", inst.spec.name, a.errs)
	}
	return nil
}

// loadERP builds the ERP database with deltaObjects business objects in the
// deltas.
func loadERP(cfg workload.ERPConfig, deltaObjects int) (*workload.ERP, error) {
	erp, err := workload.BuildERP(cfg)
	if err != nil {
		return nil, err
	}
	return erp, erp.InsertBusinessObjects(deltaObjects)
}

// erpInstance puts a manager from mcfg over a loaded ERP database.
func erpInstance(sp *spec, p params, erp *workload.ERP, mcfg core.Config) *instance {
	cfg := erp.Cfg
	mcfg.Workers = sp.workers(p.nproc)
	mgr := core.NewManager(erp.DB, erp.Reg, mcfg)
	return &instance{
		spec:     sp,
		workers:  mcfg.Workers,
		eng:      &engine{mgr: mgr, db: erp.DB, workers: mcfg.Workers},
		dbs:      []*table.DB{erp.DB},
		probeDB:  erp.DB,
		probeReg: erp.Reg,
		rc:       mcfg.Recycler,
		erpCfg:   cfg,
		insertObjects: func(n int) (int, error) {
			return n * (1 + cfg.ItemsPerHeader), erp.InsertBusinessObjects(n)
		},
		childRow:   func() (string, []column.Value) { return workload.TItem, erp.NewItemRow(1) },
		mergeTable: workload.TItem,
	}
}

// newERPInstance is loadERP followed by erpInstance.
func newERPInstance(sp *spec, p params, cfg workload.ERPConfig, deltaObjects int, mcfg core.Config) (*instance, *workload.ERP, error) {
	erp, err := loadERP(cfg, deltaObjects)
	if err != nil {
		return nil, nil, err
	}
	return erpInstance(sp, p, erp, mcfg), erp, nil
}

func buildERPHit(sp *spec, p params) (*instance, error) {
	// 0.05 % of the business objects sit in the deltas (10 of 20 000; the
	// issue's 0.1 % left the kernels just over half of erp-bigdelta's share
	// of the query wall); no writes while timed.
	inst, erp, err := newERPInstance(sp, p, erpConfig(p), scaled(10, p.scale, 2), core.Config{})
	if err != nil {
		return nil, err
	}
	inst.queries = erpRotation(erp)
	inst.ops = rotationOps(sp.opCount(p, 40), len(inst.queries))
	return inst, inst.warm()
}

func buildERPBigDelta(sp *spec, p params) (*instance, error) {
	// 30 % delta and no merge: compensation is the query.
	inst, erp, err := newERPInstance(sp, p, erpConfig(p), scaled(6000, p.scale, 60), core.Config{})
	if err != nil {
		return nil, err
	}
	inst.queries = erpRotation(erp)
	inst.ops = rotationOps(sp.opCount(p, 40), len(inst.queries))
	return inst, inst.warm()
}

// adhocCacheEntries is how many entries the erp-adhoc-miss cache holds; the
// stream draws from 180 fingerprints.
const adhocCacheEntries = 20

// adhocSQL renders one ad hoc profit query: year range x language x
// category-id bound.
func adhocSQL(lo, hi int, lang string, catBound int) string {
	return fmt.Sprintf("SELECT d.Name, SUM(i.Price) AS Profit FROM Header h "+
		"JOIN Item i ON h.HeaderID = i.HeaderID "+
		"JOIN ProductCategory d ON i.CategoryID = d.CategoryID "+
		"WHERE h.FiscalYear >= %d AND h.FiscalYear <= %d AND d.Language = '%s' AND d.CategoryID <= %d "+
		"GROUP BY d.Name", lo, hi, lang, catBound)
}

// adhocTemplates enumerates the distinct texts: 4 two-year windows x 3
// languages x 15 category bounds = 180 fingerprints. The windows are equally
// wide and the bounds all sit in the top of the id range, so every miss
// builds an entry of about the same cost: what varies between slices of the
// stream is hit or miss, not how much data a miss reads.
func adhocTemplates(cfg workload.ERPConfig) []string {
	var out []string
	for lo := 0; lo+1 < cfg.Years; lo++ {
		for _, lang := range cfg.Languages {
			for k := 0; k < 15; k++ {
				out = append(out, adhocSQL(cfg.BaseYear+lo, cfg.BaseYear+lo+1, lang, cfg.Categories-k))
			}
		}
	}
	return out
}

func buildERPAdhoc(sp *spec, p params) (*instance, error) {
	cfg := erpConfig(p)
	erp, err := loadERP(cfg, scaled(200, p.scale, 4)) // 1 % delta
	if err != nil {
		return nil, err
	}
	templates := adhocTemplates(cfg)
	// Size the cache in entries: a throwaway manager measures the widest
	// entry (every category), and the capacity is 20 of them.
	widest, err := sql.Parse(erp.DB, templates[0])
	if err != nil {
		return nil, err
	}
	sizer := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: 1})
	if _, _, err := sizer.Execute(widest.Query, core.CachedFullPruning); err != nil {
		return nil, err
	}
	entryBytes := sizer.SizeBytes()
	sizer.Clear()

	inst := erpInstance(sp, p, erp, core.Config{CapacityBytes: adhocCacheEntries * entryBytes})
	// The oracle check leaves entries behind; the timed phase starts cold.
	inst.beforeTimed = inst.eng.mgr.Clear
	rng := rand.New(rand.NewSource(p.seed))
	// The oracle checks a fixed sample of the texts; checking all 180 would
	// cost more than the timed phase.
	for _, i := range rng.Perm(len(templates))[:8] {
		st, err := sql.Parse(erp.DB, templates[i])
		if err != nil {
			return nil, err
		}
		inst.queries = append(inst.queries, prepared{name: fmt.Sprintf("adhoc-%d", i), q: st.Query, strat: core.CachedFullPruning})
	}
	inst.ops = make([]op, sp.opCount(p, 40))
	for i := range inst.ops {
		inst.ops[i] = op{sql: templates[rng.Intn(len(templates))]}
	}
	return inst, nil
}

func buildCH(sp *spec, p params) (*instance, error) {
	// The fig9 full configuration: 50 k orders, 5 % of the transactional
	// rows in deltas, stock updated in place.
	cfg := workload.DefaultCHConfig()
	cfg.Orders = scaled(50000, p.scale, 400)
	cfg.Customers = scaled(15000, p.scale, 120)
	cfg.Items = scaled(5000, p.scale, 60)
	cfg.Suppliers = scaled(500, p.scale, 20)
	cfg.Seed = p.seed
	ch, err := workload.BuildCH(cfg)
	if err != nil {
		return nil, err
	}
	workers := sp.workers(p.nproc)
	mgr := core.NewManager(ch.DB, ch.Reg, core.Config{Workers: workers})
	inst := &instance{
		spec: sp, workers: workers,
		eng:      &engine{mgr: mgr, db: ch.DB, workers: workers},
		dbs:      []*table.DB{ch.DB},
		probeDB:  ch.DB,
		probeReg: ch.Reg,
		childRow: func() (string, []column.Value) {
			return workload.TOrderline, ch.DB.MustTable(workload.TOrderline).Partition(0).Main.Row(0)
		},
		mergeTable: workload.TOrderline,
	}
	for _, name := range []string{"Q3", "Q5", "Q9", "Q10"} {
		inst.queries = append(inst.queries, prepared{name: name, q: ch.Queries()[name], strat: core.CachedFullPruning})
	}
	// Q9 runs twice per rotation: the four queries differ 50x in cost, and
	// with equal weights the median would sit on the boundary between Q10
	// and Q9. Weighted, p50 falls inside Q9 and p95 inside Q5.
	rotation := []int{0, 1, 2, 3, 2}
	inst.ops = make([]op, sp.opCount(p, 40))
	for i := range inst.ops {
		inst.ops[i] = op{query: rotation[i%len(rotation)]}
	}
	return inst, inst.warm()
}

func watchers() core.Config {
	// The watching plane as cmd/aggsql serves it by default.
	return core.Config{
		Recorder: obs.NewRecorder(obs.RecorderConfig{Capacity: obs.DefaultTraceCapacity, SlowThreshold: 100 * time.Millisecond}),
		Ledger:   obs.NewLedger(obs.DefaultLedgerCapacity),
		SLO:      obs.NewSLO(obs.SLOConfig{Target: obs.DefaultSLOTarget, Objective: obs.DefaultSLOObjective}),
		Shapes:   obs.NewShapes(obs.DefaultShapeCapacity, obs.DefaultShapeWindowSlots),
	}
}

func buildERPMixed(sp *spec, p params) (*instance, error) {
	// Half the ERP size: an online merge of the full-size Item table takes
	// over a second beside a busy reader, and four of them would occupy most
	// of the schedule. At half size merging is about a third of the phase.
	cfg := erpConfig(p)
	cfg.Headers = max(200, cfg.Headers/2)
	inst, erp, err := newERPInstance(sp, p, cfg, scaled(10, p.scale, 2), watchers())
	if err != nil {
		return nil, err
	}
	inst.queries = erpRotation(erp)
	const batch, merges = 20, 4
	// Whole batches, and the same number of them before every merge.
	per := batch * merges
	inst.mixed = &mixedPlan{
		objects: max(per, sp.opCount(p, per)/per*per),
		batch:   batch, rate: sp.opsPerSec, merges: merges,
	}
	return inst, inst.warm()
}

// headerRangeQuery aggregates the items of headers with id <= hi: with
// range sharding on HeaderID every shard above hi is prunable.
func headerRangeQuery(hi int64) *query.Query {
	return &query.Query{
		Tables: []string{workload.THeader, workload.TItem},
		Joins: []query.JoinEdge{
			{Left: query.ColRef{Table: workload.THeader, Col: "HeaderID"}, Right: query.ColRef{Table: workload.TItem, Col: "HeaderID"}},
		},
		Filters: map[string]expr.Pred{
			workload.THeader: expr.Cmp{Col: "HeaderID", Op: expr.Le, Val: column.IntV(hi)},
		},
		GroupBy: []query.ColRef{{Table: workload.TItem, Col: "CategoryID"}},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: workload.TItem, Col: "Price"}, As: "Revenue"},
		},
	}
}

const shardCount = 4

func buildERPShard(sp *spec, p params) (*instance, error) {
	cfg := erpConfig(p)
	serp, err := workload.BuildShardedERP(cfg, shardCount)
	if err != nil {
		return nil, err
	}
	workers := sp.workers(p.nproc)
	s := shard.New(serp.Cluster, shard.Config{Manager: core.Config{Workers: workers}, Metrics: obs.NewRegistry()})
	last := serp.Cluster.Shard(shardCount - 1)
	inst := &instance{
		spec: sp, workers: workers,
		eng:      &engine{sh: s, workers: workers},
		probeDB:  last.DB,
		probeReg: last.Reg,
		erpCfg:   cfg,
		insertObjects: func(n int) (int, error) {
			return n * (1 + cfg.ItemsPerHeader), serp.InsertBusinessObjects(n)
		},
		childRow: func() (string, []column.Value) {
			return workload.TItem, last.DB.MustTable(workload.TItem).Partition(0).Main.Row(0)
		},
		mergeTable: workload.TItem,
	}
	for _, sh := range serp.Cluster.Shards() {
		inst.dbs = append(inst.dbs, sh.DB)
	}
	// The three probes of internal/bench/shard.go: uncached full-span scan,
	// uncached selective scan (header-id prefix inside the first shard), and
	// the cached full-span aggregation whose delta sits on one shard.
	full := serp.ItemRevenueQuery()
	inst.queries = []prepared{
		{name: "full-span-uncached", q: full, strat: core.Uncached},
		{name: "selective-uncached", q: headerRangeQuery(int64(cfg.Headers) / 10), strat: core.Uncached},
		{name: "tid-local-cached", q: full, strat: core.CachedFullPruning},
	}
	if err := inst.warm(); err != nil {
		return nil, err
	}
	// Monotonic header ids route every new object to the last shard.
	if err := serp.InsertBusinessObjects(scaled(300, p.scale, 6)); err != nil {
		return nil, err
	}
	inst.ops = rotationOps(sp.opCount(p, 60), len(inst.queries))
	return inst, nil
}

// staggerQueriesPerRound follows every insert round.
const staggerQueriesPerRound = 10

func buildERPStagger(sp *spec, p params) (*instance, error) {
	rcReg := obs.NewRegistry()
	rc := recycler.New(recycler.Config{Metrics: rcReg})
	inst, erp, err := newERPInstance(sp, p, erpConfig(p), 0, core.Config{Recycler: rc})
	if err != nil {
		return nil, err
	}
	inst.rcReg = rcReg
	cfg := inst.erpCfg
	cur := cfg.BaseYear + cfg.Years - 1
	// Items attach to headers of any year, so both years compensate alike.
	for _, y := range []int{cur, cur - 1} {
		for _, lang := range cfg.Languages[:2] {
			inst.queries = append(inst.queries, prepared{name: fmt.Sprintf("profit-%d-%s", y, lang),
				q: erp.ProfitQuery(y, lang), strat: core.CachedFullPruning})
		}
	}
	// New items attach to old headers: parent and child tids overlap, the
	// MD prefilter cannot prune Header.main x Item.delta.
	rng := rand.New(rand.NewSource(p.seed + 1))
	item := erp.DB.MustTable(workload.TItem)
	tidItem := erp.ItemCol("TidItem")
	inst.insertItems = func(n int) (int, error) {
		for k := 0; k < n; k++ {
			row := erp.NewItemRow(1 + rng.Int63n(int64(cfg.Headers)))
			tx := erp.DB.Txns().Begin()
			row[tidItem] = column.IntV(int64(tx.ID()))
			if err := erp.Reg.FillChildTIDs(workload.TItem, row); err != nil {
				tx.Abort()
				return k, err
			}
			if _, err := item.Insert(tx, row); err != nil {
				tx.Abort()
				return k, err
			}
			tx.Commit()
		}
		return n, nil
	}
	// The issue's 30 rounds of 1 500 items take a quarter of a second here
	// (top-ups only scan new rows), so about the same number of items
	// arrives in many more, smaller rounds: 750 rounds of 50 at 5 s.
	// At least eight, so a traced quarter has a second round: the first only
	// admits partials, top-ups start with the next.
	rounds := sp.opCount(p, 8)
	items := scaled(50, p.scale, 10)
	for r := 0; r < rounds; r++ {
		inst.ops = append(inst.ops, op{query: -1, items: items})
		for k := 0; k < staggerQueriesPerRound; k++ {
			inst.ops = append(inst.ops, op{query: k % len(inst.queries)})
		}
	}
	return inst, inst.warm()
}

// streamDigest renders the seed-dependent part of an instance — the
// operation stream and the writer's plan — for the determinism test.
func (inst *instance) streamDigest() string {
	var b strings.Builder
	for _, o := range inst.ops {
		fmt.Fprintf(&b, "%d|%s|%d\n", o.query, o.sql, o.items)
	}
	for _, q := range inst.queries {
		fmt.Fprintf(&b, "%s|%s|%s\n", q.name, q.q.Fingerprint(), q.strat)
	}
	if inst.mixed != nil {
		fmt.Fprintf(&b, "%+v\n", *inst.mixed)
	}
	return b.String()
}
