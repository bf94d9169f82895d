package verify

import (
	"time"

	"aggcache/internal/obs"
)

// BundleSchemaVersion stamps every diagnostics bundle; bump it whenever a
// top-level bundle field is added, removed, renamed, or changes shape so
// postmortem tooling can dispatch on shape.
//
// Version 2: the audit section lists one report per shard (ShardAudit) and
// the verify section one status per shard.
const BundleSchemaVersion = 2

// DefaultBundleTraces and DefaultBundleLedgerTail bound the trace and
// ledger sections when BundleSources leaves the limits zero.
const (
	DefaultBundleTraces     = 5
	DefaultBundleLedgerTail = 256
)

// BundleSources names everything a process can contribute to a
// diagnostics bundle. Every field is optional — absent sources produce
// null/empty sections, never errors — so the same Collect call serves the
// full aggsql server, the bench runner, and minimal tests.
type BundleSources struct {
	// Meta carries free-form identity ("binary", "experiment", "addr"...).
	Meta map[string]string
	// Registry supplies the metrics snapshot.
	Registry *obs.Registry
	// Sampler supplies the time series.
	Sampler *obs.Sampler
	// Events supplies the event-log tail (wire the event writer through a
	// LineTail via io.MultiWriter to populate it).
	Events *obs.LineTail
	// Recorder supplies the last TraceLimit retained traces (default
	// DefaultBundleTraces).
	Recorder   *obs.Recorder
	TraceLimit int
	// Ledger supplies the decision tail (last LedgerTail decisions,
	// default DefaultBundleLedgerTail) plus its canonical rendering.
	Ledger     *obs.Ledger
	LedgerTail int
	// Advisor, Governor, Recycler, and Cache are payload thunks — the
	// same payloads the corresponding /debug endpoints serve.
	Advisor  func() any
	Governor func() any
	Recycler func() any
	Cache    func() any
	// Shapes and SLO supply per-shape profiles and SLO state.
	Shapes *obs.Shapes
	SLO    *obs.SLO
	// Auditor contributes its latest invariant report (running one pass
	// if none has completed); Verifiers contribute their statuses, one per
	// shard in shard order.
	Auditor   *Auditor
	Verifiers []*Verifier
}

// Bundle is the one-shot diagnostics archive: a single versioned JSON
// document snapshotting every observability surface at one instant. Every
// key is always present (null/empty when the source is absent) so the
// top-level schema is stable — the golden-schema test pins it.
type Bundle struct {
	SchemaVersion int                     `json:"schema_version"`
	CreatedUnixMS int64                   `json:"created_unix_ms"`
	Meta          map[string]string       `json:"meta"`
	Metrics       *obs.Snapshot           `json:"metrics"`
	Series        map[string][]obs.Sample `json:"series"`
	EventsTail    []string                `json:"events_tail"`
	Traces        []*obs.TraceRecord      `json:"traces"`
	LedgerTail    []obs.Decision          `json:"ledger_tail"`
	LedgerCanon   string                  `json:"ledger_canon"`
	Advisor       any                     `json:"advisor"`
	Shapes        []obs.ShapeProfile      `json:"shapes"`
	SLO           *obs.SLOReport          `json:"slo"`
	Governor      any                     `json:"governor"`
	Recycler      any                     `json:"recycler"`
	Cache         any                     `json:"cache"`
	Audit         *AuditReport            `json:"audit"`
	Verify        []Status                `json:"verify"`
}

// Collect assembles a diagnostics bundle from whatever sources are wired.
// It only reads snapshots (every source is internally synchronized), so it
// is safe to call from a debug handler while the engine serves.
func Collect(src BundleSources) *Bundle {
	b := &Bundle{
		SchemaVersion: BundleSchemaVersion,
		CreatedUnixMS: time.Now().UnixMilli(),
		Meta:          src.Meta,
		EventsTail:    []string{},
		Traces:        []*obs.TraceRecord{},
		LedgerTail:    []obs.Decision{},
		Shapes:        []obs.ShapeProfile{},
	}
	if b.Meta == nil {
		b.Meta = map[string]string{}
	}
	if src.Registry != nil {
		snap := src.Registry.Snapshot()
		b.Metrics = &snap
	}
	if src.Sampler != nil {
		b.Series = src.Sampler.Dump()
	}
	if src.Events != nil {
		b.EventsTail = src.Events.Lines()
	}
	if src.Recorder.Enabled() {
		limit := src.TraceLimit
		if limit <= 0 {
			limit = DefaultBundleTraces
		}
		for i, ts := range src.Recorder.List() { // newest first
			if i >= limit {
				break
			}
			if rec, ok := src.Recorder.Get(ts.ID); ok {
				b.Traces = append(b.Traces, rec)
			}
		}
	}
	if src.Ledger.Enabled() {
		tail := src.LedgerTail
		if tail <= 0 {
			tail = DefaultBundleLedgerTail
		}
		ds := src.Ledger.Snapshot()
		if len(ds) > tail {
			ds = ds[len(ds)-tail:]
		}
		b.LedgerTail = ds
		b.LedgerCanon = obs.CanonLedger(ds)
	}
	if src.Advisor != nil {
		b.Advisor = src.Advisor()
	}
	if ps := src.Shapes.Profiles(); ps != nil {
		b.Shapes = ps
	}
	if src.SLO != nil {
		rep := src.SLO.Report()
		b.SLO = &rep
	}
	if src.Governor != nil {
		b.Governor = src.Governor()
	}
	if src.Recycler != nil {
		b.Recycler = src.Recycler()
	}
	if src.Cache != nil {
		b.Cache = src.Cache()
	}
	if src.Auditor != nil {
		rep := src.Auditor.Last()
		b.Audit = &rep
	}
	for _, v := range src.Verifiers {
		b.Verify = append(b.Verify, v.Status())
	}
	return b
}
