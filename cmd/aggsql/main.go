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
//	aggsql -shards 4             # ERP range-sharded by header id; SELECTs
//	                             # scatter-gather with cross-shard pruning
//	aggsql -c "SELECT ..."       # one statement, then exit
//
// Shell commands:
//
//	\tables              list tables with row counts
//	\strategy <name>     uncached | none | empty | full (default full)
//	\insert <n>          insert n business objects / orders into the deltas
//	\merge               synchronized delta merge of the transactional tables
//	                     (per-shard and concurrent with -shards)
//	\shards              cluster layout (-shards): per-shard key ranges,
//	                     watermarks, store/cache sizes, and the scatter/prune
//	                     counters
//	\cache               show aggregate cache entries sorted by profit
//	\recycler            show the second-level recycler cache (-recycle):
//	                     subjoin partials with hit/top-up tallies and cached
//	                     join build tables
//	\advisor             replay the decision ledger through the shadow-cache
//	                     simulator and print the what-if report (capacity and
//	                     admission-threshold sweeps, eviction policies, tenant
//	                     budget splits)
//	\stats               dump the observability registry (counters, latencies)
//	\slo                 windowed SLO report (error-budget burn over the short
//	                     and long windows) plus, with -govern, the
//	                     governor's work against its merge price (one
//	                     line per shard with -shards)
//	\shapes              per-query-shape profiles: rolling p50/p99, hit rate,
//	                     compensation cost, delta rows scanned
//	\traces              list flight-recorded query traces (newest first)
//	\traces <id>         print one trace's span tree and critical path
//	\traces export <id> <file>
//	                     write the trace as Chrome trace-event JSON — open
//	                     the file in ui.perfetto.dev or chrome://tracing
//	\audit               run the cache/recycler invariant auditor once and
//	                     print its report
//	\bundle [file]       write the one-shot diagnostics bundle (metrics,
//	                     series, traces, ledger, advisor, SLO, shapes,
//	                     governor, recycler, audit, verifier) as JSON
//	\help                this text
//	\quit                exit
//
// Prefix any SELECT with EXPLAIN ANALYZE to execute it with tracing and
// print the span tree: cache-lookup verdict, main/delta compensation, one
// line per subjoin combination with its prune/pushdown verdict, and the
// critical-path / parallel-efficiency decomposition of the execution.
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
// With -recycle the manager runs a second-level recycler cache: subjoin
// intermediates admitted during delta compensation are reused across
// queries (exact hits and watermark top-ups), and build-side join hash
// tables are shared. \recycler and /debug/recycler show its contents;
// EXPLAIN ANALYZE shows the per-subjoin recycler verdicts.
//
// With -debug <addr> the shell serves the observability debug endpoint:
// /metrics (registry snapshot as JSON), /debug/cache (cache configuration,
// eviction reasons, and entry metrics sorted by profit), /debug/recycler
// (the recycler cache snapshot), /debug/advisor (the shadow-cache what-if
// report), /debug/slo (the windowed SLO report and governor snapshot, a
// list of per-shard snapshots with -shards),
// /debug/shapes (the per-query-shape profiles), and — with -shards —
// /debug/shards (the cluster layout snapshot).
//
// With -govern the maintenance governor runs in the background: it merges
// the transactional tables online once the delta tuples their compensation
// has joined since the last merge reach the rows a merge would rewrite
// (\merge stays available for manual merges).
//
// With -verify-sample <rate> the online shadow verifier re-executes that
// fraction of queries in the background against the uncached oracle under
// the same pinned snapshot, diffing rows and statistics; divergences bump
// verify.divergences, land in the decision ledger as verify-mismatch, and
// persist a replayable reproducer artifact. With -audit <interval> the
// invariant auditor checks cache/recycler bookkeeping on that cadence; the
// latest report serves at /debug/audit and via \audit.
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
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/recycler"
	"aggcache/internal/shard"
	"aggcache/internal/sql"
	"aggcache/internal/table"
	"aggcache/internal/verify"
	"aggcache/internal/workload"
)

// shell bundles the loaded dataset with the cache manager and session
// state.
type shell struct {
	db       *table.DB
	mgr      *core.Manager
	strategy core.Strategy
	// sharded is the scatter-gather plane when -shards > 1; SELECTs route
	// through it instead of mgr (which then points at shard 0's manager,
	// backing the single-manager debug surfaces). serp routes inserts to
	// the owning shard.
	sharded *shard.Sharded
	serp    *workload.ShardedERP
	// saud replaces aud in sharded mode: every shard audited independently
	// plus cross-pass watermark monotonicity.
	saud *verify.ShardAuditor
	// insert grows the transactional deltas by n business objects.
	insert func(n int) error
	// mergeTables are the related transactional tables merged together.
	mergeTables []string
	// rec is the query flight recorder behind \traces; nil when disabled.
	rec *obs.Recorder
	// led is the cache decision ledger behind \advisor; nil when disabled.
	led *obs.Ledger
	// govs are the maintenance governors, one per shard in a sharded
	// shell; nil unless -govern.
	govs []*core.Governor
	// aud is the invariant auditor behind \audit and /debug/audit.
	aud *verify.Auditor
	// bundle assembles the one-shot diagnostics bundle behind \bundle and
	// /debug/bundle.
	bundle func() *verify.Bundle
}

// governorSection is the governor payload of /debug/slo and the bundle:
// the governor's snapshot, or in a sharded shell one snapshot per shard in
// shard order.
func (sh *shell) governorSection() any {
	if sh.sharded == nil {
		return sh.govs[0].Snapshot()
	}
	snaps := make([]core.GovernorSnapshot, len(sh.govs))
	for i, g := range sh.govs {
		snaps[i] = g.Snapshot()
	}
	return snaps
}

// insertSharded inserts n business objects, each under its owning shard's
// writer lock (monotonic header ids route new objects to the last shard).
func (sh *shell) insertSharded(n int) error {
	for i := 0; i < n; i++ {
		owner := sh.serp.Cluster.Shard(sh.serp.Cluster.ShardFor(sh.serp.NextHeaderID()))
		owner.DB.Lock()
		err := sh.serp.InsertBusinessObject(sh.serp.Cfg.ItemsPerHeader)
		owner.DB.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// auditReport returns the latest invariant report from whichever auditor
// this shell runs (per-shard cluster passes in sharded mode).
func (sh *shell) auditReport() any {
	if sh.saud != nil {
		return sh.saud.Last()
	}
	return sh.aud.Last()
}

// advisorReport replays the shell's ledger through the shadow-cache
// simulator at the manager's live configuration.
func (sh *shell) advisorReport() *advisor.Report {
	dbg := sh.mgr.CacheDebug()
	return advisor.Analyze(sh.led.Snapshot(), advisor.Options{
		CapacityBytes: dbg.CapacityBytes,
		MinProfit:     dbg.MinProfit,
		Metrics:       sh.mgr.Metrics(),
	})
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
		nshards    = flag.Int("shards", 1, "range-shard the erp dataset by header id into this many shards; >1 runs every SELECT through the scatter-gather executor with cross-shard pruning (\\shards, /debug/shards); results are identical at every count")
	)
	flag.Parse()

	// Install the event log before loading the dataset, so the database and
	// the cache manager pick it up through obs.Events(). The log tees
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

	// The invariant auditor backs \audit, /debug/audit, and the bundle's
	// audit section; -audit runs it on that interval (otherwise it runs on
	// demand). A sharded shell audits every shard independently instead.
	if sh.sharded != nil {
		sh.saud = verify.NewShardAuditor(sh.sharded, verify.AuditorConfig{})
	} else {
		sh.aud = verify.NewAuditor(sh.mgr, verify.AuditorConfig{})
	}
	switch {
	case *auditEvery > 0 && sh.sharded != nil:
		sh.saud.Start(*auditEvery)
		defer sh.saud.Stop()
	case *auditEvery > 0:
		sh.aud.Start(*auditEvery)
		defer sh.aud.Stop()
	}

	// With -govern the governor merges the transactional tables once the
	// delta compensation they caused has cost what a merge costs. A sharded
	// shell runs one governor per shard — each weighs its own shard's work
	// and merges it online with no cross-shard pause.
	switch {
	case *govern && sh.sharded != nil:
		sh.sharded.Govern(core.GovernorConfig{Tables: sh.mergeTables})
		sh.sharded.StartGovernors()
		defer sh.sharded.StopGovernors()
		sh.govs = sh.sharded.Governors()
	case *govern:
		g := core.NewGovernor(sh.mgr, core.GovernorConfig{Tables: sh.mergeTables})
		g.Start()
		defer g.Stop()
		sh.govs = []*core.Governor{g}
	}

	// The online shadow verifier re-executes a deterministic sample of
	// queries against the uncached oracle in the background; detach the
	// hook before draining so in-flight captures still verify. A sharded
	// shell attaches one verifier per shard manager — a per-shard
	// divergence is exactly a cluster divergence (the gather fold is
	// additive), caught without re-running the whole scatter.
	var verifier *verify.Verifier
	if *verifyRate > 0 {
		vcfg := verify.Config{
			SampleRate: *verifyRate,
			Seed:       *verifySeed,
			Recorder:   rec,
		}
		if sh.sharded != nil {
			vs := verify.AttachPerShard(sh.sharded, vcfg)
			defer func() {
				for _, m := range sh.sharded.Managers() {
					m.SetShadow(nil)
				}
				verify.StopAll(vs)
			}()
		} else {
			verifier = verify.Attach(sh.mgr, vcfg)
			defer func() {
				sh.mgr.SetShadow(nil)
				verifier.Stop()
			}()
		}
	}

	// The background sampler always runs: it owns window rotation, so the
	// SLO error budgets and per-shape quantiles advance once a second, and
	// its series back /debug/series and the bundle.
	sampler := obs.NewSampler(sh.mgr.Metrics(), obs.SamplerConfig{Interval: *sample, Rotate: sh.mgr.RotateWindows})
	sampler.Start()
	defer sampler.Stop()
	// The governor and recycler sections of the bundle and the debug
	// endpoint; nil when the subsystem is off.
	var governor, recyclerDump func() any
	if sh.govs != nil {
		governor = sh.governorSection
	}
	if rc != nil {
		recyclerDump = func() any { return rc.Debug() }
	}
	sh.bundle = func() *verify.Bundle {
		var advisorThunk func() any
		if led != nil {
			advisorThunk = func() any { return sh.advisorReport() }
		}
		return verify.Collect(verify.BundleSources{
			Meta:     map[string]string{"binary": "aggsql", "dataset": *dataset},
			Registry: sh.mgr.Metrics(),
			Sampler:  sampler,
			Events:   eventTail,
			Recorder: rec,
			Ledger:   led,
			Advisor:  advisorThunk,
			Shapes:   sh.mgr.Shapes(),
			SLO:      sh.mgr.SLO(),
			Governor: governor,
			Recycler: recyclerDump,
			Cache:    func() any { return sh.mgr.CacheDebug() },
			Auditor:  sh.aud,
			Verifier: verifier,
		})
	}

	if *debugAddr != "" {
		var advisorSource func() (any, string)
		if led != nil {
			advisorSource = func() (any, string) {
				rep := sh.advisorReport()
				var sb strings.Builder
				rep.Render(&sb)
				return rep, sb.String()
			}
		}
		var shardsDump func() any
		if sh.sharded != nil {
			shardsDump = func() any { return sh.sharded.Snapshot() }
		}
		addr, err := obs.ServeDebug(*debugAddr, sh.mgr.Metrics(), obs.DebugOptions{
			CacheDump: func() any { return sh.mgr.CacheDebug() },
			Sampler:   sampler,
			Recorder:  rec,
			Advisor:   advisorSource,
			SLO:       sh.mgr.SLO(),
			Shapes:    sh.mgr.Shapes(),
			Governor:  governor,
			Recycler:  recyclerDump,
			Audit:     func() any { return sh.auditReport() },
			Shards:    shardsDump,
			Bundle:    func() any { return sh.bundle() },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "aggsql: debug endpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("debug endpoint on http://%s/ (index), /metrics, /debug/cache, /debug/series, /debug/traces, /debug/advisor, /debug/slo, /debug/shapes, /debug/audit, /debug/bundle\n", addr)
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

func load(dataset string, shards int, mgrCfg core.Config) (*shell, error) {
	if shards > 1 && dataset != "erp" {
		return nil, fmt.Errorf("-shards applies to the erp dataset only")
	}
	switch dataset {
	case "erp":
		cfg := workload.DefaultERPConfig()
		cfg.Headers = 20000
		if shards > 1 {
			// Sharded shell: the same dataset range-partitioned by header id,
			// one cache manager per shard, SELECTs scatter-gathered. Every
			// shard's manager shares one registry (cluster totals) — the
			// shard.* dispatch metrics land there too.
			if mgrCfg.Metrics == nil {
				mgrCfg.Metrics = obs.Default()
			}
			serp, err := workload.BuildShardedERP(cfg, shards)
			if err != nil {
				return nil, err
			}
			s := shard.New(serp.Cluster, shard.Config{Manager: mgrCfg, Metrics: mgrCfg.Metrics})
			sh := &shell{
				db:          serp.Cluster.Shard(0).DB,
				mgr:         s.Manager(0),
				sharded:     s,
				serp:        serp,
				strategy:    core.CachedFullPruning,
				mergeTables: []string{workload.THeader, workload.TItem},
				rec:         mgrCfg.Recorder,
				led:         mgrCfg.Ledger,
			}
			sh.insert = sh.insertSharded
			return sh, nil
		}
		erp, err := workload.BuildERP(cfg)
		if err != nil {
			return nil, err
		}
		return &shell{
			db:          erp.DB,
			mgr:         core.NewManager(erp.DB, erp.Reg, mgrCfg),
			strategy:    core.CachedFullPruning,
			insert:      erp.InsertBusinessObjects,
			mergeTables: []string{workload.THeader, workload.TItem},
			rec:         mgrCfg.Recorder,
			led:         mgrCfg.Ledger,
		}, nil
	case "ch":
		ch, err := workload.BuildCH(workload.DefaultCHConfig())
		if err != nil {
			return nil, err
		}
		return &shell{
			db:       ch.DB,
			mgr:      core.NewManager(ch.DB, ch.Reg, mgrCfg),
			strategy: core.CachedFullPruning,
			rec:      mgrCfg.Recorder,
			led:      mgrCfg.Ledger,
			insert: func(n int) error {
				for i := 0; i < n; i++ {
					if err := ch.InsertOrder(); err != nil {
						return err
					}
				}
				return nil
			},
			mergeTables: []string{workload.TOrders, workload.TNewOrder, workload.TOrderline},
		}, nil
	}
	return nil, fmt.Errorf("unknown dataset %q (erp or ch)", dataset)
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
	if sh.sharded != nil {
		start := time.Now()
		res, info, err := sh.sharded.Execute(st.Query, sh.strategy)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		printResult(st, res)
		fmt.Printf("-- %d group(s) in %s [%s: scattered %d/%d shards (pruned %d: empty %d, md %d, scan %d), delta on %d shard(s), cache hits %d, subjoins %d/%d]\n",
			res.Groups(), elapsed.Round(10*time.Microsecond), info.Strategy,
			info.Scattered, sh.sharded.NumShards(), info.Pruned,
			info.PrunedEmpty, info.PrunedMD, info.PrunedScan,
			info.DeltaShards, info.CacheHits, info.Stats.Executed, info.Stats.Subjoins)
		return nil
	}
	start := time.Now()
	res, info, err := sh.mgr.Execute(st.Query, sh.strategy)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	printResult(st, res)
	fmt.Printf("-- %d group(s) in %s [%s: hit=%v memo=%v subjoins %d/%d, md-pruned %d, empty-pruned %d, pushdowns %d]\n",
		res.Groups(), elapsed.Round(10*time.Microsecond), info.Strategy, info.CacheHit, info.MemoHit,
		info.Stats.Executed, info.Stats.Subjoins, info.Stats.PrunedMD,
		info.Stats.PrunedEmpty, info.Stats.Pushdowns)
	return nil
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
	if sh.sharded != nil {
		// Sharded explain: the scatter span carries the dispatch/prune
		// verdict per shard; per-shard execution detail stays in each
		// shard's own trace recorder.
		sp := obs.StartSpan("scatter " + st.Query.Fingerprint())
		res, info, err := sh.sharded.ExecuteSpan(st.Query, sh.strategy, sp)
		sp.End()
		if err != nil {
			return err
		}
		sp.Render(os.Stdout)
		fmt.Printf("-- %d group(s) in %s [%s: scattered %d/%d shards (pruned %d: empty %d, md %d, scan %d), delta on %d shard(s), cache hits %d, subjoins %d/%d, rows scanned %d]\n",
			res.Groups(), info.Total.Round(10*time.Microsecond), info.Strategy,
			info.Scattered, sh.sharded.NumShards(), info.Pruned,
			info.PrunedEmpty, info.PrunedMD, info.PrunedScan,
			info.DeltaShards, info.CacheHits, info.Stats.Executed, info.Stats.Subjoins,
			info.Stats.RowsScanned)
		return nil
	}
	res, info, sp, err := sh.mgr.ExplainAnalyze(st.Query, sh.strategy)
	if err != nil {
		return err
	}
	sp.Render(os.Stdout)
	obs.Analyze(sp).Render(os.Stdout)
	shape := st.Query.Shape()
	if prof, ok := sh.mgr.Shapes().Profile(shape); ok {
		fmt.Printf("-- shape: %s\n-- shape history: %d queries, hit rate %.0f%%, rolling p50=%dus p99=%dus\n",
			shape, prof.Queries, prof.HitRate*100, prof.Window.P50US, prof.Window.P99US)
	} else {
		fmt.Printf("-- shape: %s (no profile yet)\n", shape)
	}
	if info.Regret > 0 {
		fmt.Printf("-- regret: this miss was a ledger-predicted hit at capacity %.1fx\n", info.Regret)
	}
	fmt.Printf("-- %d group(s) in %s [%s: hit=%v memo=%v subjoins %d/%d, md-pruned %d, scan-pruned %d, empty-pruned %d, pushdowns %d, rows scanned %d]\n",
		res.Groups(), info.Total.Round(10*time.Microsecond), info.Strategy, info.CacheHit, info.MemoHit,
		info.Stats.Executed, info.Stats.Subjoins, info.Stats.PrunedMD, info.Stats.PrunedScan,
		info.Stats.PrunedEmpty, info.Stats.Pushdowns, info.Stats.RowsScanned)
	return nil
}

func printResult(st *sql.Statement, res *query.AggTable) {
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
		fmt.Println(strings.Join(parts, "  "))
		if ri == 0 {
			fmt.Println(strings.Repeat("-", len(strings.Join(parts, "  "))))
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
		fmt.Println(`\tables  \strategy <uncached|none|empty|full>  \insert <n>  \merge  \shards  \cache  \recycler  \advisor  \stats  \slo  \shapes  \audit  \bundle  \quit
\shards                     cluster layout and scatter/prune counters (-shards <n>)
\slo                        windowed SLO report and governor snapshot (-govern)
\shapes                     per-query-shape profiles (rolling p50/p99, hit rate)
\audit                      run the cache/recycler invariant auditor once
\bundle [file]              write the one-shot diagnostics bundle as JSON
\traces                     list flight-recorded query traces (newest first)
\traces <id>                print one trace's span tree and critical path
\traces export <id> <file>  write the trace as Chrome trace-event JSON (ui.perfetto.dev)
EXPLAIN ANALYZE <select>;   trace one execution and print the span tree`)
	case "\\tables":
		if sh.sharded != nil {
			for _, ss := range sh.sharded.Snapshot().PerShard {
				fmt.Printf("shard %d [%d, %d):\n", ss.Index, ss.RangeLo, ss.RangeHi)
				for _, ts := range ss.Tables {
					fmt.Printf("  %-18s main=%8d  delta=%6d  partitions=%d\n",
						ts.Name, ts.MainRows, ts.DeltaRows, ts.Partitions)
				}
			}
			break
		}
		for _, name := range sh.db.TableNames() {
			t := sh.db.MustTable(name)
			main, delta := 0, 0
			for _, p := range t.Partitions() {
				main += p.Main.Rows()
				delta += p.Delta.Rows()
			}
			fmt.Printf("  %-18s main=%8d  delta=%6d  partitions=%d\n",
				name, main, delta, len(t.Partitions()))
		}
	case "\\strategy":
		if len(fields) != 2 {
			fmt.Println("usage: \\strategy <uncached|none|empty|full>")
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
			fmt.Printf("unknown strategy %q\n", fields[1])
			return false
		}
		fmt.Printf("strategy = %s\n", sh.strategy)
	case "\\insert":
		n := 100
		if len(fields) == 2 {
			if v, err := strconv.Atoi(fields[1]); err == nil {
				n = v
			}
		}
		start := time.Now()
		// Writes run under the database writer lock: the background
		// shadow verifier scans under the read lock, so delta
		// appends must exclude it. Sharded inserts take each owning
		// shard's lock inside insertSharded instead.
		var err error
		if sh.sharded != nil {
			err = sh.insert(n)
		} else {
			sh.db.Lock()
			err = sh.insert(n)
			sh.db.Unlock()
		}
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		fmt.Printf("inserted %d business objects in %s\n", n, time.Since(start).Round(time.Millisecond))
	case "\\merge":
		start := time.Now()
		merge, kind := sh.db.MergeTablesOnline, "merged"
		if sh.sharded != nil {
			// Sharded merges run per shard, all shards concurrently, with no
			// cross-shard pause.
			merge, kind = sh.serp.Cluster.MergeTablesOnlineConcurrent, "merged (all shards, concurrent)"
		}
		if err := merge(false, sh.mergeTables...); err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		fmt.Printf("%s %s in %s\n", kind, strings.Join(sh.mergeTables, ", "), time.Since(start).Round(time.Millisecond))
	case "\\shards":
		if sh.sharded == nil {
			fmt.Println("not sharded (run with -shards <n>)")
			break
		}
		snap := sh.sharded.Snapshot()
		fmt.Printf("shards=%d boundaries=%v\n", snap.Shards, snap.Boundaries)
		fmt.Printf("queries=%d scattered=%d pruned=%d (empty=%d md=%d scan=%d) delta-single=%d/%d\n",
			snap.Queries, snap.Scattered, snap.Pruned,
			snap.PrunedEmpty, snap.PrunedMD, snap.PrunedScan,
			snap.DeltaSingle, snap.Queries)
		for _, ss := range snap.PerShard {
			main, delta := 0, 0
			for _, ts := range ss.Tables {
				main += ts.MainRows
				delta += ts.DeltaRows
			}
			fmt.Printf("  shard %d [%d, %d): watermark=%d main=%d delta=%d cache entries=%d bytes=%d\n",
				ss.Index, ss.RangeLo, ss.RangeHi, ss.Watermark, main, delta,
				ss.CacheEntries, ss.CacheBytes)
		}
	case "\\cache":
		dbg := sh.mgr.CacheDebug()
		fmt.Printf("entries=%d totalBytes=%d capacity=%d minProfit=%g\n",
			dbg.Entries, dbg.Bytes, dbg.CapacityBytes, dbg.MinProfit)
		if dbg.Evictions > 0 {
			fmt.Printf("evictions=%d (capacity=%d stale=%d min-profit=%d) regretGhosts=%d\n",
				dbg.Evictions, dbg.EvictionsByReason[core.EvictCapacity],
				dbg.EvictionsByReason[core.EvictStale], dbg.EvictionsByReason[core.EvictMinProfit],
				dbg.RegretGhosts)
		}
		for _, e := range dbg.ByProfit {
			staleMark := ""
			if e.Stale {
				staleMark = " STALE"
			}
			fmt.Printf("  profit=%10.3f hits=%-5d size=%-8d dirty=%-4d rebuilds=%d maint=%d%s\n    %s\n",
				e.Profit, e.Hits, e.SizeBytes, e.DirtyCounter, e.Rebuilds, e.Maintenances, staleMark, e.Key)
		}
	case "\\recycler":
		rc := sh.mgr.Recycler()
		if rc == nil {
			fmt.Println("recycler disabled (run with -recycle)")
			break
		}
		dbg := rc.Debug()
		fmt.Printf("partials=%d bytes=%d capacity=%d  hits=%d misses=%d topups=%d bypasses=%d evictions=%d invalidations=%d\n",
			dbg.Entries, dbg.Bytes, dbg.CapacityBytes,
			dbg.Hits, dbg.Misses, dbg.Topups, dbg.Bypasses, dbg.Evictions, dbg.Invalidations)
		fmt.Printf("builds=%d bytes=%d capacity=%d  hits=%d misses=%d evictions=%d\n",
			dbg.BuildEntries, dbg.BuildBytes, dbg.BuildCapacityBytes,
			dbg.BuildHits, dbg.BuildMisses, dbg.BuildEvictions)
		for _, e := range dbg.Partials {
			fmt.Printf("  profit=%10.3f hits=%-5d topups=%-4d groups=%-6d cost-rows=%-8d wm=%-6d size=%d\n    %s\n",
				e.Profit, e.Hits, e.Topups, e.Groups, e.CostRows, e.SnapHigh, e.Bytes, e.Key)
		}
		for _, b := range dbg.Builds {
			fmt.Printf("  build rows=%-8d hits=%-5d size=%-8d %s\n", b.Rows, b.Hits, b.Bytes, b.Key)
		}
	case "\\stats":
		// Sorted-name iteration keeps the dump deterministic for goldens
		// and diffs.
		snap := sh.mgr.Metrics().Snapshot()
		for _, name := range snap.CounterNames() {
			fmt.Printf("  %-28s %d\n", name, snap.Counters[name])
		}
		for _, name := range snap.GaugeNames() {
			fmt.Printf("  %-28s %d\n", name, snap.Gauges[name])
		}
		for _, name := range snap.HistogramNames() {
			h := snap.Histograms[name]
			fmt.Printf("  %-28s count=%d mean=%.0fus p50=%dus p99=%dus\n",
				name, h.Count, h.MeanUS, h.P50US, h.P99US)
		}
	case "\\slo":
		sh.mgr.SLO().Report().Render(os.Stdout)
		if sh.govs == nil {
			fmt.Println("governor: off (run with -govern)")
		}
		for i, g := range sh.govs {
			label := "governor"
			if sh.sharded != nil {
				label = fmt.Sprintf("governor shard %d", i)
			}
			snap := g.Snapshot()
			fmt.Printf("%s: work=%d price=%d merges=%d ticks=%d last=%s\n",
				label, snap.Work, snap.Price, snap.Merges, snap.Ticks, snap.LastReason)
			if snap.Failures > 0 {
				fmt.Printf("%s: %d failed merges, last: %s\n", label, snap.Failures, snap.LastError)
			}
		}
	case "\\shapes":
		profiles := sh.mgr.Shapes().Profiles()
		if len(profiles) == 0 {
			fmt.Println("no shape profiles yet — run a query first")
			break
		}
		fmt.Printf("  %7s  %6s  %9s  %9s  %9s  %10s  %s\n",
			"queries", "hit%", "p50us", "p99us", "comp-us", "delta-rows", "shape")
		for _, p := range profiles {
			fmt.Printf("  %7d  %5.1f%%  %9d  %9d  %9.0f  %10.0f  %s\n",
				p.Queries, p.HitRate*100, p.Window.P50US, p.Window.P99US,
				p.MeanCompUS, p.MeanDeltaRows, p.Shape)
		}
	case "\\advisor":
		if !sh.led.Enabled() {
			fmt.Println("decision ledger disabled (run with -ledger <n>)")
			break
		}
		sh.advisorReport().Render(os.Stdout)
	case "\\audit":
		if sh.saud != nil {
			rep := sh.saud.RunOnce()
			status := "OK"
			if !rep.OK {
				status = fmt.Sprintf("%d VIOLATION(S)", len(rep.Violations))
			}
			fmt.Printf("cluster audit pass %d: %s\n", rep.Passes, status)
			for i, sr := range rep.PerShard {
				fmt.Printf("  shard %d: watermark=%d entries=%d bytes=%d (summed %d) ghosts=%d\n",
					i, rep.Watermarks[i], sr.Cache.Entries, sr.Cache.AccountedBytes,
					sr.Cache.SummedBytes, sr.Cache.Ghosts)
			}
			for _, v := range rep.Violations {
				fmt.Printf("  VIOLATION: %s\n", v)
			}
			break
		}
		rep := sh.aud.RunOnce()
		status := "OK"
		if !rep.OK {
			status = fmt.Sprintf("%d VIOLATION(S)", len(rep.Violations))
		}
		fmt.Printf("audit pass %d: %s\n", rep.Passes, status)
		fmt.Printf("  cache:    entries=%d bytes=%d (summed %d) watermark=%d ghosts=%d\n",
			rep.Cache.Entries, rep.Cache.AccountedBytes, rep.Cache.SummedBytes,
			rep.Cache.Watermark, rep.Cache.Ghosts)
		if rep.Recycler != nil {
			fmt.Printf("  recycler: partials=%d bytes=%d (summed %d) builds=%d stale-guards=%d\n",
				rep.Recycler.Entries, rep.Recycler.AccountedBytes, rep.Recycler.SummedBytes,
				rep.Recycler.BuildEntries, rep.Recycler.StaleGuards)
		}
		for _, v := range rep.Violations {
			fmt.Printf("  VIOLATION: %s\n", v)
		}
	case "\\bundle":
		path := "aggcache-bundle.json"
		if len(fields) == 2 {
			path = fields[1]
		}
		body, err := json.MarshalIndent(sh.bundle(), "", "  ")
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		fmt.Printf("wrote diagnostics bundle (schema v%d, %d bytes) to %s\n",
			verify.BundleSchemaVersion, len(body), path)
	case "\\traces":
		sh.runTraces(fields[1:])
	default:
		fmt.Printf("unknown command %s (\\help)\n", fields[0])
	}
	return false
}

// runTraces implements \traces: list retained traces, print one, or export
// one as a Chrome trace-event file.
func (sh *shell) runTraces(args []string) {
	if !sh.rec.Enabled() {
		fmt.Println("flight recorder disabled (run with -traces <n>)")
		return
	}
	switch {
	case len(args) == 0:
		list := sh.rec.List()
		if len(list) == 0 {
			fmt.Println("no traces recorded yet — run a query first")
			return
		}
		fmt.Printf("  %4s  %-10s  %6s  %s\n", "id", "duration", "spans", "query")
		for _, s := range list {
			slowMark := ""
			if s.Slow {
				slowMark = "  SLOW"
			}
			fmt.Printf("  %4d  %-10s  %6d  %s%s\n",
				s.ID, time.Duration(s.DurNS).Round(10*time.Microsecond), s.Spans, s.Name, slowMark)
		}
	case args[0] == "export":
		if len(args) != 3 {
			fmt.Println("usage: \\traces export <id> <file>")
			return
		}
		id, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			fmt.Printf("bad trace id %q\n", args[1])
			return
		}
		tr, ok := sh.rec.Get(id)
		if !ok {
			fmt.Printf("trace %d not retained (\\traces lists the live ids)\n", id)
			return
		}
		f, err := os.Create(args[2])
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		if err := tr.WriteTraceEvents(f); err != nil {
			f.Close()
			fmt.Printf("error: %v\n", err)
			return
		}
		if err := f.Close(); err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		fmt.Printf("wrote %s — open it in ui.perfetto.dev or chrome://tracing\n", args[2])
	default:
		id, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			fmt.Printf("usage: \\traces [<id> | export <id> <file>]\n")
			return
		}
		tr, ok := sh.rec.Get(id)
		if !ok {
			fmt.Printf("trace %d not retained (\\traces lists the live ids)\n", id)
			return
		}
		tr.Root.Render(os.Stdout)
		obs.Analyze(tr.Root).Render(os.Stdout)
	}
}
