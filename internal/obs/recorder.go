package obs

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Recorder is the query flight recorder: a bounded ring buffer of the last
// N completed query traces plus a slow-query log that always retains traces
// whose wall clock exceeded a latency threshold — so a slow outlier is
// still inspectable after the ring has cycled past it. It backs the
// /debug/traces endpoint and the aggsql \traces command.
//
// A nil *Recorder is the disabled recorder: Enabled reports false and
// Record is a no-op, so the cache manager's per-query hook costs one nil
// check and zero allocations when flight recording is off (the default) —
// TestDisabledRecorderAllocs asserts this.
//
// Recorder is safe for concurrent use: queries record from many goroutines
// while HTTP handlers list and fetch. Recorded spans must be complete
// (End called, no further mutation) — the recorder shares the span tree
// with readers rather than copying it.
type Recorder struct {
	cfg RecorderConfig

	mu   sync.Mutex
	ring *Ring[*TraceRecord] // the last Capacity traces
	slow *Ring[*TraceRecord] // the last SlowCapacity slow traces
}

// RecorderConfig tunes retention.
type RecorderConfig struct {
	// Capacity is the ring size — how many recent traces are kept; 0 means
	// DefaultTraceCapacity.
	Capacity int
	// SlowThreshold marks traces at or above this duration as slow; they
	// are retained in the slow log even after the ring cycles past them.
	// 0 disables the slow log.
	SlowThreshold time.Duration
	// SlowCapacity bounds the slow log; 0 means DefaultSlowCapacity.
	SlowCapacity int
}

// Recorder defaults: 64 recent traces, 32 retained slow traces.
const (
	DefaultTraceCapacity = 64
	DefaultSlowCapacity  = 32
)

// TraceRecord is one retained query trace.
type TraceRecord struct {
	// ID is the recorder-assigned sequence number, unique per recorder and
	// increasing in completion order.
	ID int64 `json:"id"`
	// Slow marks traces that met the slow threshold.
	Slow bool `json:"slow,omitempty"`
	// Root is the trace's span tree.
	Root *Span `json:"root"`
}

// TraceSummary is the listing row for one retained trace — everything
// /debug/traces and \traces print without loading the span tree.
type TraceSummary struct {
	ID          int64  `json:"id"`
	Name        string `json:"name"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurNS       int64  `json:"dur_ns"`
	Slow        bool   `json:"slow,omitempty"`
	Spans       int    `json:"spans"`
}

// NewRecorder returns a recorder with the given retention policy.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultTraceCapacity
	}
	if cfg.SlowCapacity <= 0 {
		cfg.SlowCapacity = DefaultSlowCapacity
	}
	return &Recorder{
		cfg:  cfg,
		ring: NewRing[*TraceRecord](cfg.Capacity),
		slow: NewRing[*TraceRecord](cfg.SlowCapacity),
	}
}

// Enabled reports whether traces are retained; a nil receiver reports
// false. Callers gate span-tree construction on it so untraced executions
// stay allocation-free.
func (r *Recorder) Enabled() bool { return r != nil }

// Record retains a completed trace and returns its assigned id (0 when the
// recorder is disabled or root is nil). The span tree must not be mutated
// after Record.
func (r *Recorder) Record(root *Span) int64 {
	if r == nil || root == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := &TraceRecord{ID: r.ring.Pushed() + 1, Root: root}
	if r.cfg.SlowThreshold > 0 && root.Dur >= r.cfg.SlowThreshold {
		rec.Slow = true
		r.slow.Push(rec)
	}
	r.ring.Push(rec)
	return rec.ID
}

// List summarizes every retained trace — the ring union the slow log,
// newest first. A nil recorder lists nothing.
func (r *Recorder) List() []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// A slow trace may sit in both rings: sort by descending id, then
	// drop the duplicates.
	recs := append(r.ring.Snapshot(), r.slow.Snapshot()...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID > recs[j].ID })
	recs = slices.CompactFunc(recs, func(a, b *TraceRecord) bool { return a.ID == b.ID })
	out := make([]TraceSummary, len(recs))
	for i, rec := range recs {
		out[i] = summarize(rec)
	}
	return out
}

// Get returns the retained trace with the given id.
func (r *Recorder) Get(id int64) (*TraceRecord, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range append(r.ring.Snapshot(), r.slow.Snapshot()...) {
		if rec.ID == id {
			return rec, true
		}
	}
	return nil, false
}

// Len reports how many distinct traces are retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.List())
}

func summarize(rec *TraceRecord) TraceSummary {
	spans := 0
	rec.Root.Walk(func(*Span) { spans++ })
	return TraceSummary{
		ID:          rec.ID,
		Name:        rec.Root.Name,
		StartUnixNS: rec.Root.StartTime().UnixNano(),
		DurNS:       int64(rec.Root.Dur),
		Slow:        rec.Slow,
		Spans:       spans,
	}
}
