// Package bench implements the paper's evaluation (Sec. 6) as reproducible
// experiments: one per figure or reported measurement, each returning a
// Result that renders the same series the paper plots. cmd/benchrunner is a
// thin wrapper around this package. Speed claims about the engine are made
// by the separate benchmark/ harness, not here.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Workers is the subjoin worker-pool cap every experiment passes to the
// managers and executors it builds; 0 (the default) means GOMAXPROCS.
// cmd/benchrunner sets it from -workers. Results are identical for every
// value — only timings change.
var Workers int

// Point is one measurement: X is the experiment's sweep variable, Y the
// measured value (milliseconds unless the result says otherwise).
type Point struct {
	X, Y float64
}

// Series is one plotted line: a strategy or configuration across the sweep.
type Series struct {
	Label  string
	Points []Point
}

// Result is one reproduced figure or table.
type Result struct {
	// ID is the experiment identifier (e.g. "fig7").
	ID string
	// Title describes the experiment.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// XFormat renders sweep values ("%.0f" default).
	XFormat string
	// Series holds one line per strategy/configuration.
	Series []Series
	// Notes carries observations the paper's text reports alongside the
	// figure (speedup factors, crossover points).
	Notes []string
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
