package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so a spread
// computed here matches the one the benchmark driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based, fractional
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median; ok is false
// with fewer than four values, where quartiles say nothing.
func spread(xs []float64) (float64, bool) {
	if len(xs) < 4 {
		return 0, false
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs)), true
}

// valuesOf collects one metric's values over a set's runs of one workload.
func valuesOf(s *resultSet, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range s.Results {
		if r.Workload == workload && r.Traced == traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// compareSets prints, per workload and end-to-end metric, both medians, the
// relative change with its base, the bound and a verdict; and checks that
// the count metrics of single-client workloads repeat exactly for the same
// seed. ok is false when a metric regressed or a count differs.
func compareSets(w io.Writer, a, b *resultSet) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (base)\tb\tworse by\tbound\tspread a/b\tverdict")
	for _, sp := range specs {
		for _, d := range endToEnd {
			va, vb := valuesOf(a, sp.name, false, d.Name), valuesOf(b, sp.name, false, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = ratio(ma-mb, ma)
			}
			sa, oka := spread(va)
			sb, okb := spread(vb)
			verdict := "ok"
			switch {
			case (oka && sa > d.Bound) || (okb && sb > d.Bound):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				ok = false
			}
			spreads := "n/a"
			if oka && okb {
				spreads = fmt.Sprintf("%.1f%%/%.1f%%", 100*sa, 100*sb)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%+.1f%% of %.4f\t%.0f%%\t%s\t%s\n",
				sp.name, d.Name, ma, d.Unit, mb, d.Unit, 100*worse, ma, 100*d.Bound, spreads, verdict)
		}
	}
	tw.Flush()

	for _, sp := range specs {
		if sp.clients != 1 || sp.timedCounts {
			continue // concurrent clients interleave differently every run
		}
		ra, rb := firstTraced(a, sp.name), firstTraced(b, sp.name)
		if ra == nil || rb == nil || ra.Env.Seed != rb.Env.Seed || ra.Env.Scale != rb.Env.Scale || ra.Env.Seconds != rb.Env.Seconds {
			continue
		}
		for _, name := range countMetrics {
			if ra.Metrics[name] != rb.Metrics[name] {
				fmt.Fprintf(w, "count mismatch: %s %s: %v vs %v (same seed %d)\n",
					sp.name, name, ra.Metrics[name], rb.Metrics[name], ra.Env.Seed)
				ok = false
			}
		}
	}
	return ok
}

func firstTraced(s *resultSet, workload string) *result {
	for _, r := range s.Results {
		if r.Workload == workload && r.Traced {
			return r
		}
	}
	return nil
}

func compareFiles(w io.Writer, aPath, bPath string) (bool, error) {
	a, err := readSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := readSet(bPath)
	if err != nil {
		return false, err
	}
	return compareSets(w, a, b), nil
}
