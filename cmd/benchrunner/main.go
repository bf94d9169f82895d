// Command benchrunner regenerates the paper's evaluation tables and
// figures. Each experiment prints the same series the corresponding figure
// plots, in milliseconds and (with -normalize) as normalized execution
// times. With -json each experiment additionally writes BENCH_<exp>.json —
// the series plus the observability-registry snapshot of the run — the
// machine-readable perf trajectory tracked across PRs.
//
// Usage:
//
//	benchrunner -exp fig7            # one experiment, full scale
//	benchrunner -exp all -quick      # every experiment, scaled down
//	benchrunner -exp fig7 -json      # also write BENCH_fig7.json
//	benchrunner -exp fig7 -json -advisor
//	                                 # embed the shadow-cache what-if report
//	                                 # (capacity sweep, eviction policies,
//	                                 # tenant splits) into BENCH_fig7.json
//	benchrunner -exp fig7 -trace-out traces/
//	                                 # export per-point query traces as
//	                                 # Chrome trace-event JSON (ui.perfetto.dev)
//	benchrunner -debug :8080 ...     # serve /metrics, /debug/series, pprof
//	benchrunner -sample 250ms ...    # time-series scrape interval
//	benchrunner -events events.log   # structured event log ("-" = stderr)
//	benchrunner -exp serve -verify-sample 0.05
//	                                 # shadow-verify 5% of soak queries
//	                                 # against the uncached oracle; the
//	                                 # check/divergence tallies land in the
//	                                 # soak section of BENCH_serve.json
//	benchrunner -bundle-on-fail ...  # on experiment failure, write a
//	                                 # diagnostics bundle (BUNDLE_<exp>.json
//	                                 # in -out) before exiting nonzero
//	benchrunner -list                # list experiment IDs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"aggcache/internal/bench"
	"aggcache/internal/obs"
	"aggcache/internal/verify"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (fig6, mem, insert, fig7, fig8, fig9, fig10, fig11, serve, ...) or 'all'")
		quick     = flag.Bool("quick", false, "run the scaled-down configurations")
		normalize = flag.Bool("normalize", false, "additionally print normalized execution times (as the paper plots)")
		jsonOut   = flag.Bool("json", false, "write BENCH_<exp>.json per experiment (series + metrics snapshot)")
		outDir    = flag.String("out", ".", "directory for -json output files")
		debugAddr = flag.String("debug", "", "serve the observability debug endpoint (/metrics, /debug/series, /debug/pprof) on this address while running")
		sample    = flag.Duration("sample", obs.DefaultSampleInterval, "time-series scrape interval for /debug/series (with -debug)")
		events    = flag.String("events", "", "write structured lifecycle events (JSON lines) to this file; \"-\" for stderr")
		workers   = flag.Int("workers", 0, "subjoin worker-pool size per query; 0 = GOMAXPROCS, 1 = sequential")
		advise    = flag.Bool("advisor", false, "attach a cache decision ledger to the workload experiments and embed the shadow-cache what-if report (capacity/threshold sweeps, policies, tenant splits) into BENCH_<exp>.json")
		recycle   = flag.Bool("recycle", false, "attach the second-level recycler cache (cross-query subjoin and build-table reuse) to the workload experiments' managers; results are identical, only timings change")
		shards    = flag.String("shards", "", "comma-separated shard-count sweep for the shard experiment (e.g. 1,2,8); empty = experiment default; results are identical at every count")
		traceOut  = flag.String("trace-out", "", "directory for per-point query traces as Chrome trace-event JSON (open in ui.perfetto.dev)")
		soak      = flag.Duration("soak", 0, "per-arm duration of the serve soak experiment (0 = experiment default)")
		govern    = flag.Bool("govern", false, "run only the governed arm of the serve soak (skip the ungoverned control arm)")
		verifyRt  = flag.Float64("verify-sample", 0, "fraction of serve-soak queries shadow-verified in the background against the uncached oracle; tallies land in the soak JSON")
		bundleOnF = flag.Bool("bundle-on-fail", false, "write a diagnostics bundle (BUNDLE_<exp>.json in -out) when an experiment fails, before exiting nonzero")
		list      = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	bench.Workers = *workers
	bench.Advisor = *advise
	bench.Recycle = *recycle
	if *shards != "" {
		for _, part := range strings.Split(*shards, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "benchrunner: -shards: bad count %q\n", part)
				os.Exit(2)
			}
			bench.ShardCounts = append(bench.ShardCounts, n)
		}
	}
	bench.SoakDuration = *soak
	bench.SoakGovernedOnly = *govern
	bench.VerifySample = *verifyRt
	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: trace-out: %v\n", err)
			os.Exit(1)
		}
		bench.TraceDir = *traceOut
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	// Install the event log before any experiment builds a database, so
	// every layer picks it up through obs.Events(). The tee through the
	// line tail feeds the failure bundle's event section.
	eventTail := obs.NewLineTail(obs.DefaultTailLines)
	if *events != "" {
		var w io.Writer = os.Stderr
		if *events != "-" {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: events: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		obs.SetDefaultEvents(obs.NewEventLog(io.MultiWriter(w, eventTail)))
	}

	var sampler *obs.Sampler
	if *debugAddr != "" {
		sampler = obs.NewSampler(obs.Default(), obs.SamplerConfig{Interval: *sample})
		sampler.Start()
		defer sampler.Stop()
		addr, err := obs.ServeDebug(*debugAddr, obs.Default(), obs.DebugOptions{Sampler: sampler})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: debug endpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("debug endpoint on http://%s/metrics (also /debug/series, /debug/pprof)\n", addr)
	}

	var todo []bench.Experiment
	if *exp == "all" {
		todo = bench.All()
	} else {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		todo = []bench.Experiment{e}
	}

	// failBundle snapshots the observability state into BUNDLE_<id>.json
	// when -bundle-on-fail is set, so a failed run leaves a postmortem
	// artifact behind (CI uploads it).
	failBundle := func(id string) {
		if !*bundleOnF {
			return
		}
		b := verify.Collect(verify.BundleSources{
			Meta:     map[string]string{"binary": "benchrunner", "experiment": id},
			Registry: obs.Default(),
			Sampler:  sampler,
			Events:   eventTail,
		})
		path := fmt.Sprintf("%s/BUNDLE_%s.json", *outDir, id)
		body, err := json.MarshalIndent(b, "", "  ")
		if err == nil {
			err = os.WriteFile(path, body, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: diagnostics bundle: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "benchrunner: wrote diagnostics bundle %s\n", path)
	}

	for _, e := range todo {
		// Each experiment reports into a clean registry so its JSON
		// snapshot describes that experiment alone.
		obs.Default().Reset()
		res, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", e.ID, err)
			failBundle(e.ID)
			os.Exit(1)
		}
		res.Render(os.Stdout)
		if *normalize {
			res.Normalized().Render(os.Stdout)
		}
		if *jsonOut {
			path := fmt.Sprintf("%s/BENCH_%s.json", *outDir, e.ID)
			if err := res.Report(*quick, obs.Default().Snapshot()).WriteFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if bench.TraceDir != "" {
			exported := 0
			for _, ts := range res.Traces {
				if ts.File != "" {
					exported++
				}
			}
			if exported > 0 {
				fmt.Printf("exported %d query trace(s) to %s\n", exported, bench.TraceDir)
			}
		}
	}
}
