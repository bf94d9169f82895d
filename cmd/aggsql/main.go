// Command aggsql is an interactive SQL shell over the aggregate-cache
// engine, preloaded with one of the demo datasets. It exists to poke at the
// system by hand: run aggregate queries under different execution
// strategies, grow the deltas, trigger merges, and watch the subjoin
// pruning statistics.
//
// Usage:
//
//	aggsql                       # ERP dataset, interactive shell
//	aggsql -dataset ch           # CH-benCHmark dataset
//	aggsql -shards 4             # ERP range-sharded by header id into 4
//	                             # shards (default 1); SELECTs scatter-gather
//	                             # with cross-shard pruning
//	aggsql -c "SELECT ..."       # one statement, then exit
//
// Shell commands:
//
//	\tables              list tables with row counts
//	\strategy <name>     uncached | none | empty | full (default full)
//	\insert <n>          insert n business objects / orders into the deltas
//	\merge               synchronized delta merge of the transactional tables,
//	                     every shard concurrently
//	\shards              cluster layout: per-shard key ranges, watermarks,
//	                     store/cache sizes, and the scatter/prune counters
//	\cache               show each shard's aggregate cache entries sorted by
//	                     profit
//	\recycler            show each shard's second-level recycler cache
//	                     (-recycle): subjoin partials with hit/top-up tallies
//	                     and cached join build tables
//	\advisor             replay the decision ledger through the shadow-cache
//	                     simulator and print the what-if report (capacity and
//	                     admission-threshold sweeps, eviction policies, tenant
//	                     budget splits)
//	\stats               dump the observability registry (counters, latencies)
//	\slo                 windowed SLO report (error-budget burn over the short
//	                     and long windows) plus, with -govern, each shard
//	                     governor's work against its merge price
//	\shapes              per-query-shape profiles: rolling p50/p99, hit rate,
//	                     compensation cost, delta rows scanned
//	\traces              list flight-recorded query traces (newest first)
//	\traces <id>         print one trace's span tree and critical path
//	\traces export <id> <file>
//	                     write the trace as Chrome trace-event JSON — open
//	                     the file in ui.perfetto.dev or chrome://tracing
//	\audit               run the cache/recycler invariant auditor over every
//	                     shard once and print its report
//	\bundle [file]       write the one-shot diagnostics bundle (metrics,
//	                     series, traces, ledger, advisor, SLO, shapes,
//	                     governor, recycler, audit, verifier) as JSON
//	\help                this text
//	\quit                exit
//
// The loaded dataset is always a cluster: -shards 1 (the default) is a
// one-shard cluster, and every statement and command runs the same code at
// every shard count. Results are identical at every count.
//
// Prefix any SELECT with EXPLAIN ANALYZE to execute it with tracing and
// print the span tree: the scatter span with each shard's dispatch or prune
// verdict and, under it, each dispatched shard's execution — cache-lookup
// verdict, main/delta compensation, one line per subjoin combination with
// its prune/pushdown verdict — then the critical-path /
// parallel-efficiency decomposition.
//
// The shell runs with the query flight recorder on by default (-traces 64
// retained traces, -slow marking traces at or above the threshold as slow so
// they outlive the ring); -traces 0 disables recording.
//
// The shell also runs with the cache decision ledger on by default (-ledger
// sets the ring size, 0 disables): every cache decision is recorded with its
// profit components, feeding \advisor and /debug/advisor. -capacity and
// -min-profit bound the cache so eviction and admission decisions actually
// happen.
//
// With -recycle every shard manager runs its own second-level recycler
// cache: subjoin intermediates admitted during delta compensation are
// reused across queries (exact hits and watermark top-ups), and build-side
// join hash tables are shared. \recycler and /debug/recycler show their
// contents; EXPLAIN ANALYZE shows the per-subjoin recycler verdicts.
//
// With -debug <addr> the shell serves the observability debug endpoint:
// /metrics (registry snapshot as JSON), /debug/cache (each shard's cache
// configuration, eviction reasons, and entry metrics sorted by profit),
// /debug/recycler (each shard's recycler snapshot), /debug/advisor (the
// shadow-cache what-if report), /debug/slo (the windowed SLO report and
// one governor snapshot per shard), /debug/shapes (the per-query-shape
// profiles), and /debug/shards (the cluster layout snapshot).
//
// With -govern one maintenance governor per shard runs in the background:
// it merges its shard's transactional tables online once the delta tuples
// their compensation has joined since the last merge reach the rows a merge
// would rewrite (\merge stays available for manual merges).
//
// With -verify-sample <rate> one online shadow verifier per shard re-executes
// that fraction of the shard's executions in the background against its
// uncached oracle under the same pinned snapshot, diffing rows and
// statistics; divergences bump
// verify.divergences, land in the decision ledger as verify-mismatch, and
// persist a replayable reproducer artifact. With -audit <interval> the
// invariant auditor checks every shard's cache/recycler bookkeeping on that
// cadence; the latest report serves at /debug/audit and via \audit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"aggcache/internal/advisor"
	"aggcache/internal/core"
	"aggcache/internal/md"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/recycler"
	"aggcache/internal/shard"
	"aggcache/internal/sql"
	"aggcache/internal/table"
	"aggcache/internal/verify"
	"aggcache/internal/workload"
)

// shell bundles the loaded cluster with its cache managers and the session
// state.
type shell struct {
	s *shard.Sharded
	// db is shard 0's database, the schema statements parse against (every
	// shard holds the same tables).
	db *table.DB
	// cfg is the template every shard manager was built from; its registry,
	// recorder and ledger are shared by all shards, and its SLO tracker and
	// shape profiles are the cluster's, recording each query once.
	cfg      core.Config
	out      io.Writer
	strategy core.Strategy
	// owner names the shard the next inserted object routes to; insertOne
	// writes that object.
	owner     func() int
	insertOne func() error
	// mergeTables are the related transactional tables merged together.
	mergeTables []string
	// aud is the invariant auditor over every shard, behind \audit and
	// /debug/audit; vers are the shadow verifiers, one per shard (none
	// without -verify-sample).
	aud     *verify.Auditor
	vers    []*verify.Verifier
	sampler *obs.Sampler
	// bundle assembles the one-shot diagnostics bundle behind \bundle and
	// /debug/bundle.
	bundle func() *verify.Bundle
}

// options are the shell's background services, set from the command line.
type options struct {
	govern     bool
	verifyRate float64
	verifySeed uint64
	auditEvery time.Duration
	sample     time.Duration
	meta       map[string]string
	events     *obs.LineTail
}

func main() {
	var (
		dataset    = flag.String("dataset", "erp", "erp or ch")
		stmt       = flag.String("c", "", "execute one statement and exit")
		debugAddr  = flag.String("debug", "", "serve the observability debug endpoint (/metrics, /debug/cache, /debug/series, /debug/pprof) on this address")
		sample     = flag.Duration("sample", obs.DefaultSampleInterval, "time-series scrape interval of the background sampler (/debug/series, \\bundle)")
		events     = flag.String("events", "", "write structured lifecycle events (JSON lines) to this file; \"-\" for stderr")
		workers    = flag.Int("workers", 0, "subjoin worker-pool size per query; 0 = GOMAXPROCS, 1 = sequential")
		traces     = flag.Int("traces", obs.DefaultTraceCapacity, "flight-recorder ring size (last n query traces retained for \\traces); 0 disables recording")
		slow       = flag.Duration("slow", 100*time.Millisecond, "retain traces at or above this latency in the slow-query log even after the ring cycles; 0 disables the slow log")
		ledger     = flag.Int("ledger", obs.DefaultLedgerCapacity, "decision-ledger ring size (last n cache decisions retained for \\advisor and /debug/advisor); 0 disables the ledger")
		capacity   = flag.Uint64("capacity", 0, "cache capacity in bytes (0 = unlimited); evictions feed the ledger and the advisor")
		minProfit  = flag.Float64("min-profit", 0, "cache admission threshold on entry profit (0 admits every self-maintainable query)")
		govern     = flag.Bool("govern", false, "run the maintenance governor: merge the transactional tables online once the delta compensation they caused since the last merge reaches the rows a merge rewrites")
		recycle    = flag.Bool("recycle", false, "run the second-level recycler cache: cross-query reuse of subjoin intermediates (exact hits and watermark top-ups) and join build tables; \\recycler and /debug/recycler show its contents")
		recycleCap = flag.Uint64("recycle-capacity", 0, "recycler capacity in bytes for subjoin partials, and again for build tables (0 = unlimited); lowest-profit entries are evicted first")
		sloTarget  = flag.Duration("slo-target", obs.DefaultSLOTarget, "per-query latency target for the SLO tracker (\\slo, /debug/slo)")
		sloObj     = flag.Float64("slo-objective", obs.DefaultSLOObjective, "fraction of queries that must meet the SLO target")
		verifyRate = flag.Float64("verify-sample", 0, "fraction of queries shadow-verified in the background against the uncached oracle (0 disables); divergences are counted, ledgered, and persisted as reproducer artifacts")
		verifySeed = flag.Uint64("verify-seed", 0, "seed perturbing the deterministic shadow-verification sampler")
		auditEvery = flag.Duration("audit", 0, "run the cache/recycler invariant auditor on this cadence (0 runs it only on demand: \\audit, /debug/audit, \\bundle)")
		nshards    = flag.Int("shards", 1, "range-shard the erp dataset by header id into this many shards; every SELECT runs through the scatter-gather executor with cross-shard pruning (\\shards, /debug/shards); results are identical at every count")
	)
	flag.Parse()

	// Install the event log before loading the dataset, so the database and
	// the cache managers pick it up through obs.Events(). The log tees
	// through an in-memory tail so the diagnostics bundle can snapshot the
	// last events without re-reading the file.
	eventTail := obs.NewLineTail(obs.DefaultTailLines)
	if *events != "" {
		var w io.Writer = os.Stderr
		if *events != "-" {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aggsql: events: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		obs.SetDefaultEvents(obs.NewEventLog(io.MultiWriter(w, eventTail)))
	}

	var rec *obs.Recorder
	if *traces > 0 {
		rec = obs.NewRecorder(obs.RecorderConfig{Capacity: *traces, SlowThreshold: *slow})
	}

	var led *obs.Ledger
	if *ledger > 0 {
		led = obs.NewLedger(*ledger)
	}

	// The recycler is a template: every shard manager gets its own built
	// from its settings.
	var rc *recycler.Cache
	if *recycle {
		rc = recycler.New(recycler.Config{
			CapacityBytes:      *recycleCap,
			BuildCapacityBytes: *recycleCap,
		})
	}

	sh, err := load(*dataset, *nshards, core.Config{
		Workers:       *workers,
		Recorder:      rec,
		Ledger:        led,
		Recycler:      rc,
		CapacityBytes: *capacity,
		MinProfit:     *minProfit,
		SLO:           obs.NewSLO(obs.SLOConfig{Target: *sloTarget, Objective: *sloObj}),
		Shapes:        obs.NewShapes(obs.DefaultShapeCapacity, obs.DefaultShapeWindowSlots),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggsql: %v\n", err)
		os.Exit(1)
	}
	defer sh.start(options{
		govern:     *govern,
		verifyRate: *verifyRate,
		verifySeed: *verifySeed,
		auditEvery: *auditEvery,
		sample:     *sample,
		meta:       map[string]string{"binary": "aggsql", "dataset": *dataset},
		events:     eventTail,
	})()

	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr, sh.cfg.Metrics, sh.debugOptions())
		if err != nil {
			fmt.Fprintf(os.Stderr, "aggsql: debug endpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("debug endpoint on http://%s/ (index), /metrics, /debug/cache, /debug/series, /debug/traces, /debug/advisor, /debug/slo, /debug/shapes, /debug/audit, /debug/shards, /debug/bundle\n", addr)
	}

	if *stmt != "" {
		if err := sh.runStatement(*stmt); err != nil {
			fmt.Fprintf(os.Stderr, "aggsql: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("aggsql: %s dataset loaded; \\help for commands\n", *dataset)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("aggsql> ")
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case buf.Len() == 0 && strings.HasPrefix(trimmed, "\\"):
			if done := sh.runCommand(trimmed); done {
				return
			}
			fmt.Print("aggsql> ")
			continue
		case buf.Len() == 0 && trimmed == "":
			fmt.Print("aggsql> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			if err := sh.runStatement(buf.String()); err != nil {
				fmt.Printf("error: %v\n", err)
			}
			buf.Reset()
			fmt.Print("aggsql> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
}

// load builds the named dataset as a cluster of the given shard count.
func load(dataset string, shards int, cfg core.Config) (*shell, error) {
	switch dataset {
	case "erp":
		ecfg := workload.DefaultERPConfig()
		ecfg.Headers = 20000
		return loadERP(ecfg, shards, cfg)
	case "ch":
		if shards > 1 {
			return nil, fmt.Errorf("-shards applies to the erp dataset only")
		}
		return loadCH(workload.DefaultCHConfig(), cfg)
	}
	return nil, fmt.Errorf("unknown dataset %q (erp or ch)", dataset)
}

// loadERP builds the ERP dataset range-partitioned by header id; new
// objects take monotonic header ids and so land on the last shard.
func loadERP(ecfg workload.ERPConfig, shards int, cfg core.Config) (*shell, error) {
	serp, err := workload.BuildShardedERP(ecfg, shards)
	if err != nil {
		return nil, err
	}
	sh := newShell(serp.Cluster, cfg, workload.THeader, workload.TItem)
	sh.owner = func() int { return serp.Cluster.ShardFor(serp.NextHeaderID()) }
	sh.insertOne = func() error { return serp.InsertBusinessObject(serp.Cfg.ItemsPerHeader) }
	return sh, nil
}

// loadCH builds the CH-benCHmark dataset as a one-shard cluster.
func loadCH(ccfg workload.CHConfig, cfg core.Config) (*shell, error) {
	ch, err := workload.BuildCH(ccfg)
	if err != nil {
		return nil, err
	}
	router, err := shard.NewRouter(nil)
	if err != nil {
		return nil, err
	}
	c, err := shard.NewCluster(router, func(int) (*table.DB, *md.Registry, error) { return ch.DB, ch.Reg, nil })
	if err != nil {
		return nil, err
	}
	sh := newShell(c, cfg, workload.TOrders, workload.TNewOrder, workload.TOrderline)
	sh.owner = func() int { return 0 }
	sh.insertOne = ch.InsertOrder
	return sh, nil
}

// newShell puts one cache manager per shard over the cluster. The shard
// managers and the scatter-gather executor share one registry, so the
// metrics are cluster totals.
func newShell(c *shard.Cluster, cfg core.Config, mergeTables ...string) *shell {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	return &shell{
		s:           shard.New(c, shard.Config{Manager: cfg, Metrics: cfg.Metrics}),
		db:          c.Shard(0).DB,
		cfg:         cfg,
		out:         os.Stdout,
		strategy:    core.CachedFullPruning,
		mergeTables: mergeTables,
	}
}

// start runs the background services — the auditor, the governors, the
// shadow verifiers and the sampler — and wires the diagnostics bundle. The
// returned func stops them in reverse order.
func (sh *shell) start(o options) (stop func()) {
	var stops []func()
	// The invariant auditor backs \audit, /debug/audit, and the bundle's
	// audit section; -audit runs it on that interval (otherwise it runs on
	// demand).
	sh.aud = verify.NewAuditor(sh.s.Managers(), verify.AuditorConfig{})
	if o.auditEvery > 0 {
		sh.aud.Start(o.auditEvery)
		stops = append(stops, sh.aud.Stop)
	}
	// With -govern each shard's governor merges that shard's transactional
	// tables once the delta compensation they caused has cost what a merge
	// costs — online, with no cross-shard pause.
	if o.govern {
		sh.s.Govern(core.GovernorConfig{Tables: sh.mergeTables})
		sh.s.StartGovernors()
		stops = append(stops, sh.s.StopGovernors)
	}
	// The shadow verifiers re-execute a deterministic sample of each
	// shard's executions against that shard's uncached oracle in the
	// background: the gather fold is additive, so a shard divergence is
	// exactly a cluster divergence. Detach the hooks before draining so
	// in-flight captures still verify.
	if o.verifyRate > 0 {
		vcfg := verify.Config{SampleRate: o.verifyRate, Seed: o.verifySeed, Recorder: sh.cfg.Recorder}
		for _, m := range sh.s.Managers() {
			sh.vers = append(sh.vers, verify.Attach(m, vcfg))
		}
		stops = append(stops, func() {
			for _, m := range sh.s.Managers() {
				m.SetShadow(nil)
			}
			for _, v := range sh.vers {
				v.Stop()
			}
		})
	}
	// The background sampler always runs: it owns window rotation, so the
	// SLO error budgets and per-shape quantiles advance once a second, and
	// its series back /debug/series and the bundle.
	sh.sampler = obs.NewSampler(sh.cfg.Metrics, obs.SamplerConfig{Interval: o.sample, Rotate: func() {
		sh.cfg.SLO.Rotate()
		sh.cfg.Shapes.Rotate()
	}})
	sh.sampler.Start()
	stops = append(stops, sh.sampler.Stop)

	sh.bundle = func() *verify.Bundle {
		return verify.Collect(verify.BundleSources{
			Meta:      o.meta,
			Registry:  sh.cfg.Metrics,
			Sampler:   sh.sampler,
			Events:    o.events,
			Recorder:  sh.cfg.Recorder,
			Ledger:    sh.cfg.Ledger,
			Advisor:   sh.advisorDump(),
			Shapes:    sh.cfg.Shapes,
			SLO:       sh.cfg.SLO,
			Governor:  sh.governorDump(),
			Recycler:  sh.recyclerDump(),
			Cache:     sh.cacheDump,
			Auditor:   sh.aud,
			Verifiers: sh.vers,
		})
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
}

// debugOptions wires the debug endpoint to the shell's surfaces.
func (sh *shell) debugOptions() obs.DebugOptions {
	var advisorSource func() (any, string)
	if sh.cfg.Ledger != nil {
		advisorSource = func() (any, string) {
			rep := sh.advisorReport()
			var sb strings.Builder
			rep.Render(&sb)
			return rep, sb.String()
		}
	}
	return obs.DebugOptions{
		CacheDump: sh.cacheDump,
		Sampler:   sh.sampler,
		Recorder:  sh.cfg.Recorder,
		Advisor:   advisorSource,
		SLO:       sh.cfg.SLO,
		Shapes:    sh.cfg.Shapes,
		Governor:  sh.governorDump(),
		Recycler:  sh.recyclerDump(),
		Audit:     func() any { return sh.aud.Last() },
		Shards:    func() any { return sh.s.Snapshot() },
		Bundle:    func() any { return sh.bundle() },
	}
}

// caches lists each shard's cache configuration and entries, in shard
// order: the payload of \cache, /debug/cache and the bundle.
func (sh *shell) caches() []core.CacheDebug {
	dbgs := make([]core.CacheDebug, sh.s.NumShards())
	for i, m := range sh.s.Managers() {
		dbgs[i] = m.CacheDebug()
	}
	return dbgs
}

func (sh *shell) cacheDump() any { return sh.caches() }

// recyclers lists each shard's recycler snapshot, in shard order: the
// payload of \recycler, /debug/recycler and the bundle; nil without
// -recycle.
func (sh *shell) recyclers() []recycler.Debug {
	if sh.cfg.Recycler == nil {
		return nil
	}
	dbgs := make([]recycler.Debug, sh.s.NumShards())
	for i, m := range sh.s.Managers() {
		dbgs[i] = m.Recycler().Debug()
	}
	return dbgs
}

// recyclerDump is the recycler thunk of /debug/recycler and the bundle;
// nil without -recycle, which makes the endpoint a 404.
func (sh *shell) recyclerDump() func() any {
	if sh.cfg.Recycler == nil {
		return nil
	}
	return func() any { return sh.recyclers() }
}

// governorDump is the governor payload of /debug/slo and the bundle: one
// snapshot per shard, in shard order; nil without -govern.
func (sh *shell) governorDump() func() any {
	govs := sh.s.Governors()
	if len(govs) == 0 {
		return nil
	}
	return func() any {
		snaps := make([]core.GovernorSnapshot, len(govs))
		for i, g := range govs {
			snaps[i] = g.Snapshot()
		}
		return snaps
	}
}

// advisorDump is the bundle's advisor section; nil without a ledger.
func (sh *shell) advisorDump() func() any {
	if sh.cfg.Ledger == nil {
		return nil
	}
	return func() any { return sh.advisorReport() }
}

// advisorReport replays the shell's ledger, which every shard records
// into, through the shadow-cache simulator. Each shard's cache holds the
// template's capacity, so the replay runs at their sum.
func (sh *shell) advisorReport() *advisor.Report {
	return advisor.Analyze(sh.cfg.Ledger.Snapshot(), advisor.Options{
		CapacityBytes: sh.cfg.CapacityBytes * uint64(sh.s.NumShards()),
		MinProfit:     sh.cfg.MinProfit,
		Metrics:       sh.cfg.Metrics,
	})
}

// insert writes n objects, each under its owning shard's writer lock: the
// background shadow verifier scans under the read lock, so delta appends
// must exclude it.
func (sh *shell) insert(n int) error {
	for i := 0; i < n; i++ {
		db := sh.s.Cluster().Shard(sh.owner()).DB
		db.Lock()
		err := sh.insertOne()
		db.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (sh *shell) runStatement(stmt string) error {
	// EXPLAIN ANALYZE <select>: execute with tracing and print the span
	// tree instead of the result rows.
	if rest, ok := stripExplainAnalyze(stmt); ok {
		return sh.runExplainAnalyze(rest)
	}
	st, err := sql.Parse(sh.db, stmt)
	if err != nil {
		return err
	}
	start := time.Now()
	res, info, err := sh.s.Execute(st.Query, sh.strategy)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	sh.printResult(st, res)
	sh.printSummary(res, elapsed, info)
	return nil
}

// printSummary prints a statement's closing line: the dispatch split, the
// cache verdicts, and the shard-order fold of the subjoin statistics.
func (sh *shell) printSummary(res *query.AggTable, elapsed time.Duration, info shard.ExecInfo) {
	memo := 0
	for _, pi := range info.PerShard {
		if pi.MemoHit {
			memo++
		}
	}
	fmt.Fprintf(sh.out, "-- %d group(s) in %s [%s: scattered %d/%d shards (pruned %d: empty %d, md %d, scan %d), delta on %d shard(s), cache hits %d, memo hits %d, subjoins %d/%d, md-pruned %d, scan-pruned %d, empty-pruned %d, pushdowns %d, rows scanned %d]\n",
		res.Groups(), elapsed.Round(10*time.Microsecond), info.Strategy,
		info.Scattered, sh.s.NumShards(), info.Pruned,
		info.PrunedEmpty, info.PrunedMD, info.PrunedScan,
		info.DeltaShards, info.CacheHits, memo, info.Stats.Executed, info.Stats.Subjoins,
		info.Stats.PrunedMD, info.Stats.PrunedScan, info.Stats.PrunedEmpty,
		info.Stats.Pushdowns, info.Stats.RowsScanned)
}

// stripExplainAnalyze detects a leading EXPLAIN ANALYZE (case-insensitive)
// and returns the statement after it.
func stripExplainAnalyze(stmt string) (string, bool) {
	fields := strings.Fields(stmt)
	if len(fields) < 3 ||
		!strings.EqualFold(fields[0], "EXPLAIN") || !strings.EqualFold(fields[1], "ANALYZE") {
		return "", false
	}
	trimmed := strings.TrimSpace(stmt)
	trimmed = strings.TrimSpace(trimmed[len(fields[0]):])
	return strings.TrimSpace(trimmed[len(fields[1]):]), true
}

func (sh *shell) runExplainAnalyze(stmt string) error {
	st, err := sql.Parse(sh.db, stmt)
	if err != nil {
		return err
	}
	// The scatter span carries the dispatch/prune verdict per shard; each
	// dispatched shard's execution tree hangs under it.
	sp := obs.StartSpan("scatter " + st.Query.Fingerprint())
	res, info, err := sh.s.ExecuteSpan(st.Query, sh.strategy, sp)
	sp.End()
	if err != nil {
		return err
	}
	sp.Render(sh.out)
	obs.Analyze(sp).Render(sh.out)
	shape := st.Query.Shape()
	if prof, ok := sh.cfg.Shapes.Profile(shape); ok {
		fmt.Fprintf(sh.out, "-- shape: %s\n-- shape history: %d queries, hit rate %.0f%%, rolling p50=%dus p99=%dus\n",
			shape, prof.Queries, prof.HitRate*100, prof.Window.P50US, prof.Window.P99US)
	} else {
		fmt.Fprintf(sh.out, "-- shape: %s (no profile yet)\n", shape)
	}
	for i, pi := range info.PerShard {
		if pi.Regret > 0 {
			fmt.Fprintf(sh.out, "-- regret: shard %d's miss was a ledger-predicted hit at capacity %.1fx\n", i, pi.Regret)
		}
	}
	sh.printSummary(res, info.Total, info)
	return nil
}

func (sh *shell) printResult(st *sql.Statement, res *query.AggTable) {
	rows := st.Rows(res)
	cells := make([][]string, 0, len(rows)+1)
	cells = append(cells, st.Columns)
	for _, vals := range rows {
		line := make([]string, len(vals))
		for i, v := range vals {
			line[i] = v.String()
		}
		cells = append(cells, line)
	}
	widths := make([]int, len(st.Columns))
	for _, row := range cells {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range cells {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(sh.out, strings.Join(parts, "  "))
		if ri == 0 {
			fmt.Fprintln(sh.out, strings.Repeat("-", len(strings.Join(parts, "  "))))
		}
	}
}

// runCommand handles backslash commands; it reports whether to exit.
func (sh *shell) runCommand(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\help":
		fmt.Fprintln(sh.out, `\tables  \strategy <uncached|none|empty|full>  \insert <n>  \merge  \shards  \cache  \recycler  \advisor  \stats  \slo  \shapes  \audit  \bundle  \quit
\shards                     cluster layout and scatter/prune counters (one shard unless -shards <n>)
\slo                        windowed SLO report and per-shard governor snapshots (-govern)
\shapes                     per-query-shape profiles (rolling p50/p99, hit rate)
\audit                      run the cache/recycler invariant auditor over every shard once
\bundle [file]              write the one-shot diagnostics bundle as JSON
\traces                     list flight-recorded query traces (newest first)
\traces <id>                print one trace's span tree and critical path
\traces export <id> <file>  write the trace as Chrome trace-event JSON (ui.perfetto.dev)
EXPLAIN ANALYZE <select>;   trace one execution and print the span tree`)
	case "\\tables":
		for _, ss := range sh.s.Snapshot().PerShard {
			fmt.Fprintf(sh.out, "shard %d [%d, %d):\n", ss.Index, ss.RangeLo, ss.RangeHi)
			for _, ts := range ss.Tables {
				fmt.Fprintf(sh.out, "  %-18s main=%8d  delta=%6d  partitions=%d\n",
					ts.Name, ts.MainRows, ts.DeltaRows, ts.Partitions)
			}
		}
	case "\\strategy":
		if len(fields) != 2 {
			fmt.Fprintln(sh.out, "usage: \\strategy <uncached|none|empty|full>")
			break
		}
		switch fields[1] {
		case "uncached":
			sh.strategy = core.Uncached
		case "none":
			sh.strategy = core.CachedNoPruning
		case "empty":
			sh.strategy = core.CachedEmptyDelta
		case "full":
			sh.strategy = core.CachedFullPruning
		default:
			fmt.Fprintf(sh.out, "unknown strategy %q\n", fields[1])
			return false
		}
		fmt.Fprintf(sh.out, "strategy = %s\n", sh.strategy)
	case "\\insert":
		n := 100
		if len(fields) == 2 {
			if v, err := strconv.Atoi(fields[1]); err == nil {
				n = v
			}
		}
		start := time.Now()
		if err := sh.insert(n); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			break
		}
		fmt.Fprintf(sh.out, "inserted %d business objects in %s\n", n, time.Since(start).Round(time.Millisecond))
	case "\\merge":
		// Every shard merges concurrently, with no cross-shard pause.
		start := time.Now()
		if err := sh.s.Cluster().MergeTablesOnlineConcurrent(false, sh.mergeTables...); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			break
		}
		fmt.Fprintf(sh.out, "merged %s on %d shard(s) in %s\n", strings.Join(sh.mergeTables, ", "),
			sh.s.NumShards(), time.Since(start).Round(time.Millisecond))
	case "\\shards":
		snap := sh.s.Snapshot()
		fmt.Fprintf(sh.out, "shards=%d boundaries=%v\n", snap.Shards, snap.Boundaries)
		fmt.Fprintf(sh.out, "queries=%d scattered=%d pruned=%d (empty=%d md=%d scan=%d) delta-single=%d/%d\n",
			snap.Queries, snap.Scattered, snap.Pruned,
			snap.PrunedEmpty, snap.PrunedMD, snap.PrunedScan,
			snap.DeltaSingle, snap.Queries)
		for _, ss := range snap.PerShard {
			main, delta := 0, 0
			for _, ts := range ss.Tables {
				main += ts.MainRows
				delta += ts.DeltaRows
			}
			fmt.Fprintf(sh.out, "  shard %d [%d, %d): watermark=%d main=%d delta=%d cache entries=%d bytes=%d\n",
				ss.Index, ss.RangeLo, ss.RangeHi, ss.Watermark, main, delta,
				ss.CacheEntries, ss.CacheBytes)
		}
	case "\\cache":
		for i, dbg := range sh.caches() {
			fmt.Fprintf(sh.out, "shard %d: entries=%d totalBytes=%d capacity=%d minProfit=%g\n",
				i, dbg.Entries, dbg.Bytes, dbg.CapacityBytes, dbg.MinProfit)
			if dbg.Evictions > 0 {
				fmt.Fprintf(sh.out, "  evictions=%d (capacity=%d stale=%d min-profit=%d) regretGhosts=%d\n",
					dbg.Evictions, dbg.EvictionsByReason[core.EvictCapacity],
					dbg.EvictionsByReason[core.EvictStale], dbg.EvictionsByReason[core.EvictMinProfit],
					dbg.RegretGhosts)
			}
			for _, e := range dbg.ByProfit {
				staleMark := ""
				if e.Stale {
					staleMark = " STALE"
				}
				fmt.Fprintf(sh.out, "  profit=%10.3f hits=%-5d size=%-8d dirty=%-4d rebuilds=%d maint=%d%s\n    %s\n",
					e.Profit, e.Hits, e.SizeBytes, e.DirtyCounter, e.Rebuilds, e.Maintenances, staleMark, e.Key)
			}
		}
	case "\\recycler":
		dbgs := sh.recyclers()
		if dbgs == nil {
			fmt.Fprintln(sh.out, "recycler disabled (run with -recycle)")
			break
		}
		for i, dbg := range dbgs {
			fmt.Fprintf(sh.out, "shard %d: partials=%d bytes=%d capacity=%d  hits=%d misses=%d topups=%d bypasses=%d evictions=%d invalidations=%d\n",
				i, dbg.Entries, dbg.Bytes, dbg.CapacityBytes,
				dbg.Hits, dbg.Misses, dbg.Topups, dbg.Bypasses, dbg.Evictions, dbg.Invalidations)
			fmt.Fprintf(sh.out, "  builds=%d bytes=%d capacity=%d  hits=%d misses=%d evictions=%d\n",
				dbg.BuildEntries, dbg.BuildBytes, dbg.BuildCapacityBytes,
				dbg.BuildHits, dbg.BuildMisses, dbg.BuildEvictions)
			for _, e := range dbg.Partials {
				fmt.Fprintf(sh.out, "  profit=%10.3f hits=%-5d topups=%-4d groups=%-6d cost-rows=%-8d wm=%-6d size=%d\n    %s\n",
					e.Profit, e.Hits, e.Topups, e.Groups, e.CostRows, e.SnapHigh, e.Bytes, e.Key)
			}
			for _, b := range dbg.Builds {
				fmt.Fprintf(sh.out, "  build rows=%-8d hits=%-5d size=%-8d %s\n", b.Rows, b.Hits, b.Bytes, b.Key)
			}
		}
	case "\\stats":
		// Sorted-name iteration keeps the dump deterministic for goldens
		// and diffs.
		snap := sh.cfg.Metrics.Snapshot()
		for _, name := range snap.CounterNames() {
			fmt.Fprintf(sh.out, "  %-28s %d\n", name, snap.Counters[name])
		}
		for _, name := range snap.GaugeNames() {
			fmt.Fprintf(sh.out, "  %-28s %d\n", name, snap.Gauges[name])
		}
		for _, name := range snap.HistogramNames() {
			h := snap.Histograms[name]
			fmt.Fprintf(sh.out, "  %-28s count=%d mean=%.0fus p50=%dus p99=%dus\n",
				name, h.Count, h.MeanUS, h.P50US, h.P99US)
		}
	case "\\slo":
		sh.cfg.SLO.Report().Render(sh.out)
		govs := sh.s.Governors()
		if len(govs) == 0 {
			fmt.Fprintln(sh.out, "governor: off (run with -govern)")
		}
		for i, g := range govs {
			snap := g.Snapshot()
			fmt.Fprintf(sh.out, "governor shard %d: work=%d price=%d merges=%d ticks=%d last=%s\n",
				i, snap.Work, snap.Price, snap.Merges, snap.Ticks, snap.LastReason)
			if snap.Failures > 0 {
				fmt.Fprintf(sh.out, "governor shard %d: %d failed merges, last: %s\n", i, snap.Failures, snap.LastError)
			}
		}
	case "\\shapes":
		profiles := sh.cfg.Shapes.Profiles()
		if len(profiles) == 0 {
			fmt.Fprintln(sh.out, "no shape profiles yet — run a query first")
			break
		}
		fmt.Fprintf(sh.out, "  %7s  %6s  %9s  %9s  %9s  %10s  %s\n",
			"queries", "hit%", "p50us", "p99us", "comp-us", "delta-rows", "shape")
		for _, p := range profiles {
			fmt.Fprintf(sh.out, "  %7d  %5.1f%%  %9d  %9d  %9.0f  %10.0f  %s\n",
				p.Queries, p.HitRate*100, p.Window.P50US, p.Window.P99US,
				p.MeanCompUS, p.MeanDeltaRows, p.Shape)
		}
	case "\\advisor":
		if !sh.cfg.Ledger.Enabled() {
			fmt.Fprintln(sh.out, "decision ledger disabled (run with -ledger <n>)")
			break
		}
		sh.advisorReport().Render(sh.out)
	case "\\audit":
		rep := sh.aud.RunOnce()
		status := "OK"
		if !rep.OK {
			status = fmt.Sprintf("%d VIOLATION(S)", len(rep.Violations))
		}
		fmt.Fprintf(sh.out, "audit pass %d: %s\n", rep.Passes, status)
		for i, sa := range rep.Shards {
			fmt.Fprintf(sh.out, "  shard %d: watermark=%d entries=%d bytes=%d (summed %d) ghosts=%d\n",
				i, sa.Cache.Watermark, sa.Cache.Entries, sa.Cache.AccountedBytes,
				sa.Cache.SummedBytes, sa.Cache.Ghosts)
			if r := sa.Recycler; r != nil {
				fmt.Fprintf(sh.out, "    recycler: partials=%d bytes=%d (summed %d) builds=%d stale-guards=%d\n",
					r.Entries, r.AccountedBytes, r.SummedBytes, r.BuildEntries, r.StaleGuards)
			}
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(sh.out, "  VIOLATION: %s\n", v)
		}
	case "\\bundle":
		path := "aggcache-bundle.json"
		if len(fields) == 2 {
			path = fields[1]
		}
		body, err := json.MarshalIndent(sh.bundle(), "", "  ")
		if err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			break
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			break
		}
		fmt.Fprintf(sh.out, "wrote diagnostics bundle (schema v%d, %d bytes) to %s\n",
			verify.BundleSchemaVersion, len(body), path)
	case "\\traces":
		sh.runTraces(fields[1:])
	default:
		fmt.Fprintf(sh.out, "unknown command %s (\\help)\n", fields[0])
	}
	return false
}

// runTraces implements \traces: list retained traces, print one, or export
// one as a Chrome trace-event file.
func (sh *shell) runTraces(args []string) {
	if !sh.cfg.Recorder.Enabled() {
		fmt.Fprintln(sh.out, "flight recorder disabled (run with -traces <n>)")
		return
	}
	switch {
	case len(args) == 0:
		list := sh.cfg.Recorder.List()
		if len(list) == 0 {
			fmt.Fprintln(sh.out, "no traces recorded yet — run a query first")
			return
		}
		fmt.Fprintf(sh.out, "  %4s  %-10s  %6s  %s\n", "id", "duration", "spans", "query")
		for _, s := range list {
			slowMark := ""
			if s.Slow {
				slowMark = "  SLOW"
			}
			fmt.Fprintf(sh.out, "  %4d  %-10s  %6d  %s%s\n",
				s.ID, time.Duration(s.DurNS).Round(10*time.Microsecond), s.Spans, s.Name, slowMark)
		}
	case args[0] == "export":
		if len(args) != 3 {
			fmt.Fprintln(sh.out, "usage: \\traces export <id> <file>")
			return
		}
		id, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			fmt.Fprintf(sh.out, "bad trace id %q\n", args[1])
			return
		}
		tr, ok := sh.cfg.Recorder.Get(id)
		if !ok {
			fmt.Fprintf(sh.out, "trace %d not retained (\\traces lists the live ids)\n", id)
			return
		}
		f, err := os.Create(args[2])
		if err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			return
		}
		if err := tr.WriteTraceEvents(f); err != nil {
			f.Close()
			fmt.Fprintf(sh.out, "error: %v\n", err)
			return
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			return
		}
		fmt.Fprintf(sh.out, "wrote %s — open it in ui.perfetto.dev or chrome://tracing\n", args[2])
	default:
		id, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			fmt.Fprintf(sh.out, "usage: \\traces [<id> | export <id> <file>]\n")
			return
		}
		tr, ok := sh.cfg.Recorder.Get(id)
		if !ok {
			fmt.Fprintf(sh.out, "trace %d not retained (\\traces lists the live ids)\n", id)
			return
		}
		tr.Root.Render(sh.out)
		obs.Analyze(tr.Root).Render(sh.out)
	}
}
