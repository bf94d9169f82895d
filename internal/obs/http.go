package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strconv"
)

// DebugOptions wires the optional data sources behind the debug mux. Every
// field may be nil/zero; each endpoint documents its disabled behavior.
// The struct (rather than positional parameters) lets callers wire only
// the surfaces they actually run.
type DebugOptions struct {
	// CacheDump produces the /debug/cache payload (entry metrics by
	// profit); nil reports an empty list.
	CacheDump func() any
	// Sampler feeds /debug/series; nil reports an empty object.
	Sampler *Sampler
	// Recorder feeds /debug/traces; nil lists nothing and every fetch is
	// a 404.
	Recorder *Recorder
	// Advisor runs the shadow-cache analysis on demand and returns the
	// report value for JSON plus its rendered text — a func so obs does
	// not depend on the advisor package. Nil makes /debug/advisor a 404.
	Advisor func() (report any, text string)
	// SLO feeds /debug/slo; nil (together with a nil Governor) makes it a
	// 404.
	SLO *SLO
	// Governor returns the maintenance governor's snapshot, merged into
	// the /debug/slo payload; nil omits the governor section. A func so
	// obs does not depend on core.
	Governor func() any
	// Shapes feeds /debug/shapes; nil makes it a 404.
	Shapes *Shapes
	// Recycler returns the recycler cache's debug snapshot (partials and
	// build tables with hit/top-up tallies); nil makes /debug/recycler a
	// 404. A func so obs does not depend on the recycler package.
	Recycler func() any
	// Audit returns the invariant auditor's latest report (running an
	// immediate pass if none has run); nil makes /debug/audit a 404. A
	// func so obs does not depend on the verify package.
	Audit func() any
	// Shards returns the sharded deployment's layout snapshot (per-shard
	// key ranges, watermarks, cache and store sizes); nil makes
	// /debug/shards a 404. A func so obs does not depend on the shard
	// package.
	Shards func() any
	// Bundle assembles the one-shot diagnostics bundle; nil makes
	// /debug/bundle a 404. A func so obs does not depend on verify.
	Bundle func() any
}

// DebugMux builds the debug HTTP surface:
//
//	/                   index of every registered debug endpoint
//	/metrics            JSON snapshot of the registry
//	/metrics?format=prom  the same snapshot in Prometheus text format
//	/debug/series       sampler ring buffers as JSON (time series per metric)
//	/debug/series?last=N  the same, trimmed to each series' newest N points
//	/debug/cache        JSON dump produced by CacheDump (entry metrics by profit)
//	/debug/recycler     recycler cache snapshot (subjoin partials + build tables)
//	/debug/slo          SLO report (burn rates, budget) + governor snapshot
//	/debug/shapes       per-query-shape profiles, busiest first
//	/debug/advisor      shadow-cache what-if report as JSON (Advisor)
//	/debug/advisor?format=text
//	                    the same report rendered as aligned text
//	/debug/traces       flight-recorder listing (trace summaries, newest first)
//	/debug/traces?id=N  one retained trace as span-tree JSON
//	/debug/traces?id=N&format=trace_event
//	                    the same trace as Chrome trace-event JSON, ready for
//	                    ui.perfetto.dev or chrome://tracing
//	/debug/audit        invariant auditor report (byte accounting, watermark
//	                    monotonicity, guard consistency, ghost sanity)
//	/debug/shards       shard layout snapshot (per-shard key ranges,
//	                    watermarks, store and cache sizes)
//	/debug/bundle       one-shot diagnostics bundle (versioned JSON archive)
//	/debug/pprof/...    standard net/http/pprof profiles
//
// Every introspection handler is GET-only (405 otherwise) and marked
// Cache-Control: no-store — the payloads are live state, never cacheable.
// The mux is plain net/http so the binaries start it with one goroutine
// and no dependencies.
func DebugMux(reg *Registry, opts DebugOptions) *http.ServeMux {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	// handle wraps an introspection handler with the method and caching
	// policy shared by every endpoint.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet && r.Method != http.MethodHead {
				w.Header().Set("Allow", "GET, HEAD")
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Cache-Control", "no-store")
			h(w, r)
		})
	}
	handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			WriteProm(w, reg.Snapshot())
			return
		}
		writeJSON(w, reg.Snapshot())
	})
	handle("/debug/series", func(w http.ResponseWriter, r *http.Request) {
		if opts.Sampler == nil {
			writeJSON(w, map[string][]Sample{})
			return
		}
		dump := opts.Sampler.Dump()
		if lastStr := r.URL.Query().Get("last"); lastStr != "" {
			last, err := strconv.Atoi(lastStr)
			if err != nil || last < 1 {
				http.Error(w, "bad last parameter", http.StatusBadRequest)
				return
			}
			for name, samples := range dump {
				if len(samples) > last {
					dump[name] = samples[len(samples)-last:]
				}
			}
		}
		writeJSON(w, dump)
	})
	handle("/debug/cache", func(w http.ResponseWriter, r *http.Request) {
		if opts.CacheDump == nil {
			writeJSON(w, []any{})
			return
		}
		writeJSON(w, emptyAsList(opts.CacheDump()))
	})
	handle("/debug/recycler", func(w http.ResponseWriter, r *http.Request) {
		if opts.Recycler == nil {
			http.Error(w, "no recycler", http.StatusNotFound)
			return
		}
		writeJSON(w, opts.Recycler())
	})
	handle("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		if opts.SLO == nil && opts.Governor == nil {
			http.Error(w, "no SLO tracker", http.StatusNotFound)
			return
		}
		payload := struct {
			SLO      SLOReport `json:"slo"`
			Governor any       `json:"governor,omitempty"`
		}{SLO: opts.SLO.Report()}
		if opts.Governor != nil {
			payload.Governor = opts.Governor()
		}
		writeJSON(w, payload)
	})
	handle("/debug/shapes", func(w http.ResponseWriter, r *http.Request) {
		if opts.Shapes == nil {
			http.Error(w, "no shape profiler", http.StatusNotFound)
			return
		}
		writeJSON(w, emptyAsList(opts.Shapes.Profiles()))
	})
	handle("/debug/advisor", func(w http.ResponseWriter, r *http.Request) {
		if opts.Advisor == nil {
			http.Error(w, "no decision ledger", http.StatusNotFound)
			return
		}
		report, text := opts.Advisor()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(text))
			return
		}
		writeJSON(w, report)
	})
	handle("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		rec := opts.Recorder
		idStr := r.URL.Query().Get("id")
		if idStr == "" {
			list := rec.List()
			if list == nil {
				list = []TraceSummary{}
			}
			writeJSON(w, list)
			return
		}
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		tr, ok := rec.Get(id)
		if !ok {
			http.Error(w, "trace not retained", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "trace_event" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="trace-`+idStr+`.json"`)
			_ = tr.WriteTraceEvents(w)
			return
		}
		writeJSON(w, tr)
	})
	handle("/debug/audit", func(w http.ResponseWriter, r *http.Request) {
		if opts.Audit == nil {
			http.Error(w, "no auditor", http.StatusNotFound)
			return
		}
		writeJSON(w, opts.Audit())
	})
	handle("/debug/shards", func(w http.ResponseWriter, r *http.Request) {
		if opts.Shards == nil {
			http.Error(w, "not sharded", http.StatusNotFound)
			return
		}
		writeJSON(w, opts.Shards())
	})
	handle("/debug/bundle", func(w http.ResponseWriter, r *http.Request) {
		if opts.Bundle == nil {
			http.Error(w, "no bundle collector", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Disposition", `attachment; filename="aggcache-bundle.json"`)
		writeJSON(w, opts.Bundle())
	})
	// The root path is the endpoint index: every registered surface with a
	// one-line description, served as JSON (or plain text with
	// ?format=text). ServeMux routes any otherwise-unmatched path to "/",
	// so the handler 404s everything but the root itself.
	handle("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		idx := debugIndex(opts)
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, e := range idx {
				_, _ = w.Write([]byte(e.Path + "\t" + e.Description + "\n"))
			}
			return
		}
		writeJSON(w, idx)
	})
	// pprof keeps its own method semantics (symbol accepts POST), so it is
	// wired directly rather than through handle.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugEndpoint is one row of the /debug index: a registered path and what
// it serves.
type DebugEndpoint struct {
	Path        string `json:"path"`
	Description string `json:"description"`
	// Enabled reports whether the endpoint's data source is wired in this
	// process; disabled endpoints answer 404 (or an empty payload).
	Enabled bool `json:"enabled"`
}

// debugIndex enumerates the mux's endpoints with availability derived from
// the wired options — the "/" index payload.
func debugIndex(opts DebugOptions) []DebugEndpoint {
	return []DebugEndpoint{
		{"/metrics", "registry snapshot as JSON; ?format=prom for Prometheus text", true},
		{"/debug/series", "sampled metric time series; ?last=N trims each series", opts.Sampler != nil},
		{"/debug/cache", "aggregate cache entries with profit metrics, by profit", opts.CacheDump != nil},
		{"/debug/recycler", "second-level recycler cache: subjoin partials and build tables", opts.Recycler != nil},
		{"/debug/slo", "SLO burn rates and budget, plus the governor's work against its merge price when governed", opts.SLO != nil || opts.Governor != nil},
		{"/debug/shapes", "per-query-shape latency/compensation profiles, busiest first", opts.Shapes != nil},
		{"/debug/advisor", "shadow-cache what-if report; ?format=text for aligned text", opts.Advisor != nil},
		{"/debug/traces", "flight-recorder traces; ?id=N for one, &format=trace_event for Perfetto", opts.Recorder != nil},
		{"/debug/audit", "cache/recycler invariant audit report (latest pass)", opts.Audit != nil},
		{"/debug/shards", "shard layout: per-shard key ranges, watermarks, store and cache sizes", opts.Shards != nil},
		{"/debug/bundle", "one-shot diagnostics bundle: metrics, series, traces, ledger, reports", opts.Bundle != nil},
		{"/debug/pprof/", "standard net/http/pprof profiles", true},
	}
}

// emptyAsList normalizes a nil value or nil slice to an empty list so
// /debug/cache renders "[]", never "null" — consumers iterate the payload
// without a null check.
func emptyAsList(v any) any {
	if v == nil {
		return []any{}
	}
	rv := reflect.ValueOf(v)
	if (rv.Kind() == reflect.Slice || rv.Kind() == reflect.Map) && rv.IsNil() {
		return []any{}
	}
	return v
}

// ServeDebug listens on addr and serves the debug mux in a background
// goroutine. It returns the bound address (useful with a ":0" addr) or an
// error if the listener cannot be opened.
func ServeDebug(addr string, reg *Registry, opts DebugOptions) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: DebugMux(reg, opts)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
