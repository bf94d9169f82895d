// Package bench implements the paper's evaluation (Sec. 6) as reproducible
// experiments: one per figure or reported measurement, each returning a
// Result that renders the same series the paper plots. The cmd/benchrunner
// binary and the root-level testing.B benchmarks are thin wrappers around
// this package.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"aggcache/internal/advisor"
	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/recycler"
)

// Workers is the subjoin worker-pool cap every experiment passes to the
// managers and executors it builds; 0 (the default) means GOMAXPROCS.
// cmd/benchrunner sets it from -workers. Results are identical for every
// value — only timings change.
var Workers int

// Advisor attaches a cache decision ledger to the workload experiments'
// managers and embeds the shadow-cache what-if report (capacity and
// admission-threshold sweeps, eviction policies, tenant splits) into
// BENCH_<exp>.json. cmd/benchrunner sets it from -advisor. Results are
// identical either way — ledger capture is allocation-free on the query hot
// path and the analysis runs after the timed sweep.
var Advisor bool

// Recycle attaches a second-level recycler cache (cross-query reuse of
// subjoin intermediates and join build tables) to the workload experiments'
// managers. cmd/benchrunner sets it from -recycle. Results are identical
// either way — recycled partials are merged copies and top-ups are exact
// incremental terms; only timings change. The ablate-recycler experiment
// ignores this flag: it always runs one arm with and one without.
var Recycle bool

// advisorLedger returns the decision ledger experiments hand to their
// manager: a fresh ring when -advisor is on, nil (disabled) otherwise.
func advisorLedger() *obs.Ledger {
	if Advisor {
		return obs.NewLedger(0)
	}
	return nil
}

// benchRecycler returns the recycler cache for one experiment manager: a
// fresh cache when -recycle is on, nil otherwise. Always per-manager fresh —
// experiments must not leak reuse across arms or databases.
func benchRecycler() *recycler.Cache {
	if Recycle {
		return recycler.New(recycler.Config{})
	}
	return nil
}

// advisorAnalyze replays the manager's ledger through the shadow-cache
// simulator at the manager's live configuration; nil when no ledger was
// attached.
func advisorAnalyze(mgr *core.Manager) *advisor.Report {
	if mgr.Ledger() == nil {
		return nil
	}
	dbg := mgr.CacheDebug()
	return advisor.Analyze(mgr.Ledger().Snapshot(), advisor.Options{
		CapacityBytes: dbg.CapacityBytes,
		MinProfit:     dbg.MinProfit,
	})
}

// Point is one measurement: X is the experiment's sweep variable, Y the
// measured value (milliseconds unless the result says otherwise).
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one plotted line: a strategy or configuration across the sweep.
type Series struct {
	Label  string  `json:"label"`
	Points []Point `json:"points"`
}

// Result is one reproduced figure or table.
type Result struct {
	// ID is the experiment identifier (e.g. "fig7").
	ID string `json:"id"`
	// Title describes the experiment.
	Title string `json:"title"`
	// XLabel and YLabel name the axes.
	XLabel string `json:"x_label"`
	YLabel string `json:"y_label"`
	// XFormat renders sweep values ("%.0f" default).
	XFormat string `json:"-"`
	// Series holds one line per strategy/configuration.
	Series []Series `json:"series"`
	// Notes carries observations the paper's text reports alongside the
	// figure (speedup factors, crossover points).
	Notes []string `json:"notes,omitempty"`
	// Soak is the structured throughput/SLO section of the serve soak
	// experiment (QPS and hit rate live here, not in Series, because every
	// series is a latency series to benchdiff).
	Soak *SoakStats `json:"soak,omitempty"`
	// Traces holds the per-point query traces the experiment captured; they
	// are surfaced through Report.Traces rather than the result section.
	Traces []TraceStat `json:"-"`
	// Advisor holds the shadow-cache what-if report when the experiment ran
	// with the decision ledger attached (bench.Advisor); surfaced through
	// Report.Advisor.
	Advisor *advisor.Report `json:"-"`
}

// Report is the machine-readable bench output: the experiment's series
// plus the observability-registry snapshot taken after the run, so every
// result file records not only how fast the run was but what the engine
// did (subjoins pruned, cache hits, rows scanned). Written as
// BENCH_<id>.json, it is the perf trajectory consumed by later PRs and
// the input format of cmd/benchdiff.
type Report struct {
	Result *Result `json:"result"`
	// Quick marks scaled-down smoke configurations; quick numbers are not
	// comparable with full runs.
	Quick bool `json:"quick"`
	// Meta labels the run so benchdiff can say what it compares.
	Meta RunMeta `json:"meta"`
	// Metrics is the registry snapshot after the experiment.
	Metrics obs.Snapshot `json:"metrics"`
	// Traces lists the per-point query traces captured during the run, each
	// with its critical-path analysis (and exported trace-event file when
	// benchrunner ran with -trace-out).
	Traces []TraceStat `json:"traces,omitempty"`
	// Advisor is the shadow-cache what-if report of the run's decision
	// ledger (benchrunner -advisor).
	Advisor *advisor.Report `json:"advisor,omitempty"`
}

// RunMeta identifies one bench run: the code version, when and where it
// ran. benchdiff prints both sides' metadata so a regression report names
// the exact commits compared.
type RunMeta struct {
	// GitSHA is the commit the run was built from ("unknown" outside a git
	// checkout).
	GitSHA string `json:"git_sha"`
	// Timestamp is the run's start time, UTC RFC 3339.
	Timestamp string `json:"timestamp"`
	// GoVersion is runtime.Version().
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the scheduler parallelism of the run.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Host is the machine hostname plus GOOS/GOARCH.
	Host string `json:"host"`
}

// CollectMeta stamps the current process and checkout.
func CollectMeta() RunMeta {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	host, _ := os.Hostname()
	return RunMeta{
		GitSHA:     sha,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       fmt.Sprintf("%s (%s/%s)", host, runtime.GOOS, runtime.GOARCH),
	}
}

// Report pairs the result with a metrics snapshot and stamps run metadata.
func (r *Result) Report(quick bool, snap obs.Snapshot) *Report {
	return &Report{Result: r, Quick: quick, Meta: CollectMeta(), Metrics: snap, Traces: r.Traces, Advisor: r.Advisor}
}

// LoadReport reads a BENCH_<exp>.json file.
func LoadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Result == nil {
		return nil, fmt.Errorf("%s: no result section", path)
	}
	return &rep, nil
}

// WriteFile writes the report as indented JSON to path.
func (rep *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Normalized returns a copy with every Y divided by the maximum Y across
// all series — the "normalized execution time" the paper plots.
func (r *Result) Normalized() *Result {
	max := 0.0
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Y > max {
				max = p.Y
			}
		}
	}
	out := *r
	out.YLabel = "normalized " + r.YLabel
	out.Series = nil
	for _, s := range r.Series {
		ns := Series{Label: s.Label}
		for _, p := range s.Points {
			y := 0.0
			if max > 0 {
				y = p.Y / max
			}
			ns.Points = append(ns.Points, Point{X: p.X, Y: y})
		}
		out.Series = append(out.Series, ns)
	}
	return &out
}

// Render writes the result as an aligned text table: one row per sweep
// value, one column per series.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(w, "   x-axis: %s, values: %s\n", r.XLabel, r.YLabel)

	xf := r.XFormat
	if xf == "" {
		xf = "%.0f"
	}
	// Collect the union of X values in order.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)

	headers := make([]string, 0, len(r.Series)+1)
	headers = append(headers, r.XLabel)
	widths := []int{len(r.XLabel)}
	for _, s := range r.Series {
		headers = append(headers, s.Label)
		widths = append(widths, len(s.Label))
	}
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := []string{fmt.Sprintf(xf, x)}
		for _, s := range r.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x {
					cell = fmt.Sprintf("%.3f", p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	line(headers)
	for _, row := range rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// timeIt returns the wall-clock duration of fn in milliseconds.
func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return float64(time.Since(start)) / float64(time.Millisecond), err
}

// minOf runs fn reps times and returns the fastest run in milliseconds —
// the standard way to suppress scheduler noise on a shared machine.
func minOf(reps int, fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < reps; i++ {
		ms, err := timeIt(fn)
		if err != nil {
			return 0, err
		}
		if i == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// Experiment couples an ID with its runner so cmd/benchrunner can dispatch.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment; quick selects the scaled-down
	// configuration used by tests and smoke runs.
	Run func(quick bool) (*Result, error)
}

// All lists every experiment in the order of the paper's evaluation
// section.
func All() []Experiment {
	return []Experiment{
		{ID: "fig6", Title: "Maintenance strategies under mixed workloads (Fig. 6)", Run: RunFig6},
		{ID: "mem", Title: "Memory consumption overhead of tid columns (Sec. 6.2)", Run: RunMemOverhead},
		{ID: "insert", Title: "Insert overhead of MD enforcement (Sec. 6.3)", Run: RunInsertOverhead},
		{ID: "fig7", Title: "Join pruning benefit vs delta size (Fig. 7)", Run: RunFig7},
		{ID: "fig8", Title: "Join strategies under growing deltas (Fig. 8)", Run: RunFig8},
		{ID: "fig9", Title: "CH-benCHmark queries Q3/Q5/Q9/Q10 (Fig. 9)", Run: RunFig9},
		{ID: "fig10", Title: "Join predicate pushdown benefit (Fig. 10)", Run: RunFig10},
		{ID: "fig11", Title: "Join pruning with hot/cold partitioning (Fig. 11)", Run: RunFig11},
		{ID: "ablate-sync", Title: "Merge synchronization ablation (Sec. 5.2)", Run: RunAblateMergeSync},
		{ID: "ablate-negdelta", Title: "Negative-delta join compensation vs rebuild (Sec. 8 extension)", Run: RunAblateNegDelta},
		{ID: "ablate-recycler", Title: "Second-level recycler cache: cross-query subjoin reuse vs full delta compensation", Run: RunAblateRecycler},
		{ID: "shard", Title: "Horizontal sharding: scatter-gather with cross-shard pruning and tid-local deltas", Run: RunShard},
		{ID: "serve", Title: "Closed-loop soak: sustained mixed traffic with SLO tracking and the maintenance governor", Run: RunServe},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
