// Command benchmark is the repository's performance benchmark: seven named
// workloads over the aggregate-cache engine, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. BENCHMARK.json at
// the repository root names the metrics and the workloads the driver gates
// (three of the seven); README.md in this directory explains them. cmd/benchrunner and BENCH_*.json remain the
// paper-figure reproduction and are not a source for performance claims.
//
//	bash benchmark/run.sh -workload erp-hit -seed 1            one workload, untraced
//	bash benchmark/run.sh -workload all -seed 1 -out a.json    the untraced set
//	bash benchmark/run.sh -workload all -seed 1 -trace 1       the traced set
//	bash benchmark/run.sh -compare a.json b.json               two sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "seed of the data generators and operation streams")
		seconds      = flag.Int("seconds", 30, "target length of one timed phase on the reference host; sizes the fixed operation counts")
		trace        = flag.Int("trace", 0, "1: traced run (quarter of the operations, per-layer metrics, trace file); 0: untraced run (end-to-end metrics)")
		scale        = flag.Float64("scale", 1, "shrinks data sizes and operation counts for a smoke run; metric names do not change")
		out          = flag.String("out", "", "with -workload all: write the set of results to this JSON file")
		reps         = flag.Int("reps", 1, "with -workload all: run the whole set this many times; -compare then reports each metric's spread")
		outDir       = flag.String("outdir", "benchmark/out", "directory for trace files")
		compare      = flag.Bool("compare", false, "compare two set files: -compare a.json b.json")
		perturb      = flag.Bool("perturb-oracle", false, "self-test: corrupt served results so every oracle check must fail")
		emit         = flag.Bool("emit-benchmark-json", false, "print BENCHMARK.json as defined by this harness and exit")
	)
	flag.Parse()

	switch {
	case *emit:
		os.Stdout.Write(benchmarkJSON(*seconds))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *scale <= 0 {
		fatalf("-seconds must be at least 1 and -scale positive")
	}
	p := params{seed: *seed, scale: *scale, seconds: *seconds, nproc: runtime.NumCPU()}
	opt := options{outDir: *outDir, perturbOracle: *perturb}
	traced := *trace != 0

	if *workloadName != "all" {
		sp := findSpec(*workloadName)
		if sp == nil {
			fatalf("unknown workload %q", *workloadName)
		}
		res, err := runWorkload(sp, p, traced, opt)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(os.Stdout, res)
		os.Stdout.Write(append(driverLine(res), '\n'))
		if res.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	set := resultSet{}
	failed := 0
	for rep := 0; rep < *reps; rep++ {
		for _, sp := range specs {
			res, err := runWorkload(sp, p, traced, opt)
			if err != nil {
				fatalf("%v", err)
			}
			printResult(os.Stdout, res)
			set.Results = append(set.Results, res)
			failed += res.Failed
		}
	}
	if *out != "" {
		if err := set.write(*out); err != nil {
			fatalf("%v", err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d operations failed\n", failed)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// defsFor returns the metric definitions a run of this kind reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of the run by name with its unit and the
// number of samples behind it.
func printResult(w *os.File, res *result) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	e := res.Env
	fmt.Fprintf(w, "== %s (%s)  seed=%d scale=%g seconds=%d clients=%d workers=%d nproc=%d gomaxprocs=%d %s git=%s\n",
		res.Workload, kind, e.Seed, e.Scale, e.Seconds, e.Clients, e.Workers, e.NProc, e.GOMAXPROCS, e.GoVersion, e.GitSHA)
	for _, d := range defsFor(res.Traced) {
		samples := ""
		if n, ok := res.Samples[d.Name]; ok {
			samples = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", d.Name, res.Metrics[d.Name], d.Unit, samples)
	}
	fmt.Fprintf(w, "  %-34s %14.6f %-6s  (%d of %d)\n", "failed_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), "frac", res.Failed, res.Attempted)
	for _, msg := range res.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", msg)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", res.TraceFile)
	}
}

// driverLine renders the one-line JSON object the benchmark driver reads
// from the end of standard output.
func driverLine(res *result) []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defsFor(res.Traced) {
		metrics[d.Name] = mv{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	return b
}

// benchmarkJSON renders BENCHMARK.json from the harness's own tables.
func benchmarkJSON(seconds int) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: seconds,
		EndToEnd:   endToEnd,
	}
	for _, sp := range specs {
		if sp.gated {
			doc.Workloads = append(doc.Workloads, wl{sp.name, sp.why})
		}
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	return append(b, '\n')
}

// resultSet is one run of every workload, the unit -compare works on.
type resultSet struct {
	Results []*result `json:"results"`
}

func (s *resultSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
