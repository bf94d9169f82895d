package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestPercentilePicker(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestFoldSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "leaf", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a: parallel siblings
		{ID: 4, Parent: 0, Name: "b", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: -1, Name: "root", Start: 200, End: 210},
	}
	got := foldSelfTimes(spans)
	// root 0: 100 - union([10,60], [90,100]) = 40; root 5: 10.
	want := map[string]spanStat{
		"root": {selfNS: 50, totalNS: 110, count: 2},
		"a":    {selfNS: 20, totalNS: 30, count: 1},
		"leaf": {selfNS: 10, totalNS: 10, count: 1},
		"b":    {selfNS: 60, totalNS: 60, count: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("fold has %d names, want %d: %+v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("fold[%q] = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestMergeSpansKeepsTreesApart(t *testing.T) {
	now := time.Now()
	a, b := newTracer(), newTracer()
	for _, tr := range []*tracer{a, b} {
		op := tr.beginOp(now, now.Add(100))
		tr.add(op, "child", now.Add(10), now.Add(30))
	}
	merged := mergeSpans([]*tracer{a, b})
	if len(merged) != 4 || merged[3].Parent != 2 || merged[2].Parent != -1 || merged[3].Op != 1 {
		t.Fatalf("merged spans = %+v", merged)
	}
	got := foldSelfTimes(merged)
	if got[spanOp] != (spanStat{selfNS: 160, totalNS: 200, count: 2}) {
		t.Errorf("fold[%s] = %+v", spanOp, got[spanOp])
	}
}

func TestLayerNames(t *testing.T) {
	for _, c := range []struct {
		name  string
		depth int
		want  string
	}{
		{"execute T[Header,Item]", 0, spanExecute},
		{"cache-lookup", 1, spanLookup},
		{"delta-compensation", 1, spanDeltaComp},
		{"Header[0].main x Item[0].delta", 2, spanSubjoin},
		{"scan Item[0].delta", 3, spanScan},
		{"rebuild-entry", 1, spanRebuild},
	} {
		if got := layerName(c.name, c.depth); got != c.want {
			t.Errorf("layerName(%q, %d) = %q, want %q", c.name, c.depth, got, c.want)
		}
	}
}

// smoke is the size the tests run at: a few hundred business objects.
func smoke(seed int64) params {
	return params{seed: seed, scale: 0.02, seconds: 1, nproc: runtime.NumCPU()}
}

func runnable(t *testing.T, sp *spec, p params) {
	t.Helper()
	if sp.clients*sp.workers(p.nproc) > p.nproc {
		t.Skipf("%s needs %d cores", sp.name, sp.clients*sp.workers(p.nproc))
	}
}

func TestOpStreamsAreSeedDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, err := sp.build(sp, smoke(7))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		b, err := sp.build(sp, smoke(7))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if a.streamDigest() != b.streamDigest() {
			t.Errorf("%s: two builds with one seed differ", sp.name)
		}
		if len(a.ops) == 0 && a.mixed == nil {
			t.Errorf("%s: no operations generated", sp.name)
		}
	}
	sp := findSpec("erp-adhoc-miss")
	a, _ := sp.build(sp, smoke(7))
	b, _ := sp.build(sp, smoke(8))
	if a.streamDigest() == b.streamDigest() {
		t.Error("erp-adhoc-miss: the SQL stream ignores the seed")
	}
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	opt := options{outDir: t.TempDir()}
	layer := map[string]metricValues{}
	for _, sp := range specs {
		p := smoke(3)
		runnable(t, sp, p)
		res, err := runWorkload(sp, p, false, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s untraced: %d of %d failed: %v", sp.name, res.Failed, res.Attempted, res.Errors)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, d.Name, v)
			}
		}
		res, err = runWorkload(sp, p, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s traced: %d of %d failed: %v", sp.name, res.Failed, res.Attempted, res.Errors)
		}
		var line struct {
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(driverLine(res), &line); err != nil {
			t.Fatal(err)
		}
		for _, d := range perLayer {
			if got, ok := line.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("%s: layer metric %s missing from the driver line", sp.name, d.Name)
			}
		}
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: driver line has %d metrics, want %d", sp.name, len(line.Metrics), len(perLayer))
		}
		if res.Metrics["failed_frac"] != 0 {
			t.Errorf("%s: failed_frac = %v", sp.name, res.Metrics["failed_frac"])
		}
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", sp.name, err)
		}
		layer[sp.name] = res.Metrics
	}

	// The workloads discriminate; these are counts, exact at any size.
	check := func(workload, metric string, ok func(float64) bool, want string) {
		if m, ran := layer[workload]; ran && !ok(m[metric]) {
			t.Errorf("%s: %s = %v, want %s", workload, metric, m[metric], want)
		}
	}
	check("erp-hit", "core.hit_frac", func(v float64) bool { return v > 0.99 }, "> 0.99")
	check("erp-adhoc-miss", "core.hit_frac", func(v float64) bool { return v < 0.3 }, "< 0.3")
	check("erp-adhoc-miss", "sql.parse_count", func(v float64) bool { return v > 0 }, "> 0")
	check("ch-multijoin", "query.subjoins_max", func(v float64) bool { return v >= 127 }, ">= 127")
	check("erp-shard4", "shard.pruned_frac", func(v float64) bool { return v > 0 }, "> 0")
	check("erp-stagger-recycle", "recycler.topup_frac", func(v float64) bool { return v > 0 }, "> 0")
	check("erp-mixed", "table.merges", func(v float64) bool { return v == 4 }, "4")
	check("erp-mixed", "table.merges_crossed", func(v float64) bool { return v == 4 }, "4")
	for name, m := range layer {
		if name == "erp-stagger-recycle" {
			continue
		}
		for metric, v := range m {
			if strings.HasPrefix(metric, "recycler.") && v != 0 {
				t.Errorf("%s: %s = %v on a workload without a recycler", name, metric, v)
			}
		}
	}
}

func TestPerturbedOracleFailsTheRun(t *testing.T) {
	sp := findSpec("erp-hit")
	res, err := runWorkload(sp, smoke(1), false, options{perturbOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || len(res.Errors) == 0 {
		t.Fatalf("corrupted results passed the oracle: %+v", res)
	}
	var line struct{ Correct bool }
	if err := json.Unmarshal(driverLine(res), &line); err != nil || line.Correct {
		t.Errorf("driver line reports correct=%v for a failed run (err %v)", line.Correct, err)
	}
}

func TestGuardRefusesOversubscription(t *testing.T) {
	p := smoke(1)
	p.nproc = 1
	if _, err := runWorkload(findSpec("erp-mixed"), p, false, options{}); err == nil {
		t.Error("erp-mixed ran with 2 clients on 1 core")
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(doc.RunSeconds); !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from -emit-benchmark-json; regenerate it")
	}
}

func set(workload string, traced bool, seed int64, metrics ...metricValues) *resultSet {
	s := &resultSet{}
	for _, m := range metrics {
		s.Results = append(s.Results, &result{Workload: workload, Traced: traced,
			Env: envStamp{Seed: seed, Scale: 1, Seconds: 5}, Metrics: m})
	}
	return s
}

func TestCompare(t *testing.T) {
	base := metricValues{"query_p50_ms": 1.0, "queries_per_s": 1000}
	var out bytes.Buffer
	if !compareSets(&out, set("erp-hit", false, 1, base), set("erp-hit", false, 1, metricValues{"query_p50_ms": 1.1, "queries_per_s": 950})) {
		t.Errorf("10%% slower p50 is inside the 15%% bound:\n%s", out.String())
	}
	out.Reset()
	if compareSets(&out, set("erp-hit", false, 1, base), set("erp-hit", false, 1, metricValues{"query_p50_ms": 1.0, "queries_per_s": 700})) {
		t.Errorf("30%% lower throughput passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("no regressed verdict in:\n%s", out.String())
	}
	// Five runs whose quartiles are further apart than the bound: unresolved,
	// whatever the medians say.
	var noisy []metricValues
	for _, v := range []float64{1, 1.5, 2, 2.5, 3} {
		noisy = append(noisy, metricValues{"query_p50_ms": v})
	}
	out.Reset()
	if !compareSets(&out, set("erp-hit", false, 1, noisy...), set("erp-hit", false, 1, noisy...)) ||
		!strings.Contains(out.String(), "unresolved") {
		t.Errorf("wide spread not reported as unresolved:\n%s", out.String())
	}
	// Counts of a single-client workload repeat exactly for one seed.
	out.Reset()
	a := set("erp-hit", true, 1, metricValues{"query.subjoins": 70})
	b := set("erp-hit", true, 1, metricValues{"query.subjoins": 71})
	if compareSets(&out, a, b) || !strings.Contains(out.String(), "count mismatch") {
		t.Errorf("differing counts passed:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(&out, a, set("erp-hit", true, 2, metricValues{"query.subjoins": 71})) {
		t.Errorf("counts of different seeds compared:\n%s", out.String())
	}
}
