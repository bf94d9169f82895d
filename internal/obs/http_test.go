package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeDebugEndToEnd is the end-to-end HTTP test of the full debug
// surface on a real listener: /metrics in both formats, /debug/series,
// /debug/cache (including the empty-cache shape), method policy, caching
// policy, and pprof.
func TestServeDebugEndToEnd(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.hits").Add(5)
	r.Histogram("latency.query").Observe(250 * time.Microsecond)
	sampler := NewSampler(r, SamplerConfig{Interval: time.Hour, Capacity: 8})
	sampler.SampleOnce()

	rec := NewRecorder(RecorderConfig{Capacity: 4})
	traceID := rec.Record(parallelTree())

	var dumpResult any = nil // empty cache: a nil slice, the regression case
	advisorSource := func() (any, string) {
		return map[string]int{"decisions": 3}, "== cache advisor ==\n"
	}
	slo := NewSLO(SLOConfig{Target: time.Millisecond, Slots: 8, ShortSlots: 2})
	slo.Record(100*time.Microsecond, false)
	slo.Record(5*time.Millisecond, false)
	shapes := NewShapes(8, 4)
	shapes.Observe("T[A]P[A:x = ?]", 300*time.Microsecond, true, false, false, 40, 7)
	addr, err := ServeDebug("127.0.0.1:0", r, DebugOptions{
		CacheDump: func() any { return dumpResult },
		Sampler:   sampler,
		Recorder:  rec,
		Advisor:   advisorSource,
		SLO:       slo,
		Governor:  func() any { return map[string]int{"merges": 2} },
		Shapes:    shapes,
	})
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}

	// /metrics JSON.
	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("/metrics Cache-Control = %q, want no-store", cc)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics is not a Snapshot: %v", err)
	}
	if snap.Counters["cache.hits"] != 5 {
		t.Fatalf("/metrics counters = %v", snap.Counters)
	}

	// /metrics Prometheus text format.
	resp, body = get("/metrics?format=prom")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prom Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE aggcache_cache_hits counter",
		"aggcache_cache_hits 5",
		`aggcache_latency_query_us_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prom output missing %q:\n%s", want, body)
		}
	}

	// /debug/series returns the sampler's ring buffers.
	_, body = get("/debug/series")
	var series map[string][]Sample
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/debug/series is not a series map: %v", err)
	}
	if len(series["cache.hits"]) != 1 || series["cache.hits"][0].Value != 5 {
		t.Fatalf("/debug/series cache.hits = %v", series["cache.hits"])
	}

	// /debug/series?last=N trims each series to its newest N points.
	sampler.SampleOnce()
	sampler.SampleOnce()
	_, body = get("/debug/series?last=1")
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/debug/series?last=1 is not a series map: %v", err)
	}
	if len(series["cache.hits"]) != 1 {
		t.Fatalf("/debug/series?last=1 cache.hits has %d points, want 1", len(series["cache.hits"]))
	}
	if resp, _ := get("/debug/series?last=0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/debug/series?last=0 status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get("/debug/series?last=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/debug/series?last=bogus status = %d, want 400", resp.StatusCode)
	}

	// /debug/slo carries the SLO report plus the governor snapshot.
	resp, body = get("/debug/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo status = %d", resp.StatusCode)
	}
	var sloPayload struct {
		SLO      SLOReport      `json:"slo"`
		Governor map[string]int `json:"governor"`
	}
	if err := json.Unmarshal([]byte(body), &sloPayload); err != nil {
		t.Fatalf("/debug/slo payload: %v", err)
	}
	if sloPayload.SLO.LongTotal != 2 || sloPayload.SLO.LongBad != 1 {
		t.Fatalf("/debug/slo report = %+v", sloPayload.SLO)
	}
	if sloPayload.Governor["merges"] != 2 {
		t.Fatalf("/debug/slo governor = %v", sloPayload.Governor)
	}

	// /debug/shapes lists the per-shape profiles.
	_, body = get("/debug/shapes")
	var profs []ShapeProfile
	if err := json.Unmarshal([]byte(body), &profs); err != nil {
		t.Fatalf("/debug/shapes payload: %v", err)
	}
	if len(profs) != 1 || profs[0].Shape != "T[A]P[A:x = ?]" || profs[0].Hits != 1 {
		t.Fatalf("/debug/shapes = %+v", profs)
	}

	// /debug/cache must render an empty cache as [], never null.
	_, body = get("/debug/cache")
	if got := strings.TrimSpace(body); got != "[]" {
		t.Fatalf("/debug/cache empty dump = %q, want []", got)
	}
	dumpResult = []map[string]any{{"key": "q1"}}
	_, body = get("/debug/cache")
	if !strings.Contains(body, `"key": "q1"`) {
		t.Fatalf("/debug/cache = %s", body)
	}

	// /debug/advisor serves the what-if report as JSON and rendered text.
	resp, body = get("/debug/advisor")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"decisions": 3`) {
		t.Fatalf("/debug/advisor = %d %q", resp.StatusCode, body)
	}
	resp, body = get("/debug/advisor?format=text")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("advisor text Content-Type = %q", ct)
	}
	if !strings.Contains(body, "cache advisor") {
		t.Fatalf("/debug/advisor?format=text = %q", body)
	}

	// /debug/traces: listing, span-tree fetch, trace-event export, and the
	// not-retained/bad-id error paths.
	_, body = get("/debug/traces")
	var sums []TraceSummary
	if err := json.Unmarshal([]byte(body), &sums); err != nil {
		t.Fatalf("/debug/traces is not a summary list: %v", err)
	}
	if len(sums) != 1 || sums[0].ID != traceID || sums[0].Name != "execute q" {
		t.Fatalf("/debug/traces = %+v", sums)
	}
	_, body = get("/debug/traces?id=1")
	var tr TraceRecord
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/debug/traces?id=1 is not a TraceRecord: %v", err)
	}
	if tr.ID != traceID || tr.Root == nil || tr.Root.Name != "execute q" {
		t.Fatalf("fetched trace = %+v", tr)
	}
	resp, body = get("/debug/traces?id=1&format=trace_event")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace_event Content-Type = %q", ct)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tf); err != nil || len(tf.TraceEvents) == 0 {
		t.Fatalf("trace_event export invalid (%v):\n%s", err, body)
	}
	if resp, _ := get("/debug/traces?id=99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/debug/traces?id=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad trace id status = %d, want 400", resp.StatusCode)
	}

	// Non-GET is rejected with 405 and an Allow header.
	presp, err := http.Post("http://"+addr+"/metrics", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status = %d, want 405", presp.StatusCode)
	}
	if allow := presp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("405 Allow header = %q", allow)
	}

	// pprof is wired on the same mux.
	resp, body = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline status = %d body %q", resp.StatusCode, body)
	}
}

func TestDebugMuxNilSamplerAndDump(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0", NewRegistry(), DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Sources that are absent 404: the advisor without a decision ledger,
	// the SLO surface without a tracker, the shapes surface without a
	// profiler.
	for _, path := range []string{"/debug/advisor", "/debug/slo", "/debug/shapes"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without a source = %d, want 404", path, resp.StatusCode)
		}
	}
	for path, want := range map[string]string{
		"/debug/series": "{}",
		"/debug/cache":  "[]",
		"/debug/traces": "[]",
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := strings.TrimSpace(string(b)); got != want {
			t.Fatalf("%s = %q, want %q", path, got, want)
		}
	}
}

// TestDebugIndexAndNewEndpoints covers the root index page and the
// audit/bundle endpoints: the index lists every endpoint with its enabled
// flag, non-root unknown paths 404, and the audit/bundle handlers serve
// their payload thunks (404 when absent).
func TestDebugIndexAndNewEndpoints(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0", NewRegistry(), DebugOptions{
		Audit:  func() any { return map[string]bool{"ok": true} },
		Bundle: func() any { return map[string]int{"schema_version": 1} },
		Shards: func() any { return map[string]int{"shards": 4} },
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	var index []DebugEndpoint
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byPath := make(map[string]DebugEndpoint, len(index))
	for _, e := range index {
		byPath[e.Path] = e
	}
	for _, path := range []string{"/metrics", "/debug/audit", "/debug/bundle", "/debug/shards", "/debug/pprof/"} {
		if _, ok := byPath[path]; !ok {
			t.Fatalf("index missing %s: %+v", path, index)
		}
	}
	if !byPath["/debug/audit"].Enabled || byPath["/debug/advisor"].Enabled {
		t.Fatalf("index enabled flags wrong: %+v", index)
	}

	// Unknown paths under / still 404.
	resp, err = http.Get("http://" + addr + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get("http://" + addr + "/debug/audit")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), `"ok": true`) {
		t.Fatalf("/debug/audit = %q", b)
	}

	resp, err = http.Get("http://" + addr + "/debug/shards")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), `"shards": 4`) {
		t.Fatalf("/debug/shards = %q", b)
	}

	resp, err = http.Get("http://" + addr + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "aggcache-bundle.json") {
		t.Fatalf("bundle Content-Disposition = %q", cd)
	}
	resp.Body.Close()
	if !strings.Contains(string(b), `"schema_version": 1`) {
		t.Fatalf("/debug/bundle = %q", b)
	}

	// Absent audit/bundle sources 404 (second mux on a fresh port).
	addr2, err := ServeDebug("127.0.0.1:0", NewRegistry(), DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/audit", "/debug/bundle", "/debug/shards"} {
		resp, err := http.Get("http://" + addr2 + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without a source = %d, want 404", path, resp.StatusCode)
		}
	}
}
