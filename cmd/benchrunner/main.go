// Command benchrunner regenerates the paper's evaluation tables and
// figures. Each experiment prints the same series the corresponding figure
// plots, in milliseconds and (with -normalize) as normalized execution
// times. It reproduces the paper's shapes; speed claims about the engine
// are made by the benchmark/ harness.
//
// Usage:
//
//	benchrunner -exp fig7            # one experiment, full scale
//	benchrunner -exp all -quick      # every experiment, scaled down
//	benchrunner -debug :8080 ...     # serve /metrics, /debug/series, pprof
//	benchrunner -sample 250ms ...    # time-series scrape interval
//	benchrunner -events events.log   # structured event log ("-" = stderr)
//	benchrunner -list                # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aggcache/internal/bench"
	"aggcache/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (fig6, mem, insert, fig7, fig8, fig9, fig10, fig11, ablate-sync, ablate-negdelta) or 'all'")
		quick     = flag.Bool("quick", false, "run the scaled-down configurations")
		normalize = flag.Bool("normalize", false, "additionally print normalized execution times (as the paper plots)")
		debugAddr = flag.String("debug", "", "serve the observability debug endpoint (/metrics, /debug/series, /debug/pprof) on this address while running")
		sample    = flag.Duration("sample", obs.DefaultSampleInterval, "time-series scrape interval for /debug/series (with -debug)")
		events    = flag.String("events", "", "write structured lifecycle events (JSON lines) to this file; \"-\" for stderr")
		workers   = flag.Int("workers", 0, "subjoin worker-pool size per query; 0 = GOMAXPROCS, 1 = sequential")
		list      = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	bench.Workers = *workers

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-15s %s\n", e.ID, e.Title)
		}
		return
	}

	// Install the event log before any experiment builds a database, so
	// every layer picks it up through obs.Events().
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
		obs.SetDefaultEvents(obs.NewEventLog(w))
	}

	if *debugAddr != "" {
		sampler := obs.NewSampler(obs.Default(), obs.SamplerConfig{Interval: *sample})
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

	for _, e := range todo {
		// Each experiment reports into a clean registry so /metrics
		// describes the running experiment alone.
		obs.Default().Reset()
		res, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		res.Render(os.Stdout)
		if *normalize {
			res.Normalized().Render(os.Stdout)
		}
	}
}
