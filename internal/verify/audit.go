package verify

import (
	"fmt"
	"sync"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/recycler"
)

// DefaultAuditInterval paces the standalone audit loop when
// AuditorConfig.Interval is zero.
const DefaultAuditInterval = 2 * time.Second

// AuditorConfig tunes an Auditor.
type AuditorConfig struct {
	// Interval paces the Start loop; 0 means DefaultAuditInterval.
	Interval time.Duration
	// Metrics receives the audit.* gauges; nil uses the manager's
	// registry.
	Metrics *obs.Registry
}

// ShardAudit is one manager's slice of an audit pass: its aggregate-cache
// report and, when the manager runs one, its recycler's.
type ShardAudit struct {
	Cache    core.CacheAuditReport `json:"cache"`
	Recycler *recycler.AuditReport `json:"recycler"`
}

// AuditReport is one invariant pass over every audited manager — the
// /debug/audit payload.
type AuditReport struct {
	UnixMS int64 `json:"unix_ms"`
	// Passes counts completed audit passes including this one.
	Passes int64 `json:"passes"`
	// OK is true when no manager reported a violation.
	OK bool `json:"ok"`
	// Shards holds each manager's reports in the auditor's order (shard
	// order in a cluster).
	Shards []ShardAudit `json:"shards"`
	// Violations merges every manager's findings (cache first), each
	// prefixed "shard N:", plus any watermark that moved backwards since
	// the previous pass.
	Violations []string `json:"violations"`
}

// Auditor runs background invariant passes over the cache and recycler
// bookkeeping of a list of managers — one per shard of a cluster — each
// checked against its own database's watermark. Across passes it also
// asserts that no manager's watermark moves backwards (shards advance
// independently; none may regress). It exports audit.* metrics, summed
// over the managers, and retains the latest report for the debug surface
// and diagnostics bundle.
type Auditor struct {
	ms []*core.Manager

	passes      *obs.Counter // audit.passes — completed invariant passes
	violations  *obs.Gauge   // audit.violations — findings in the latest pass
	cacheDrift  *obs.Gauge   // audit.cache_bytes_drift — Σ |accounted − summed| cache bytes
	staleGuards *obs.Gauge   // audit.recycler_stale_guards — recycler entries pending lazy invalidation

	// mu serializes passes (so the watermark comparison sees them in
	// order) and guards the retained state.
	mu      sync.Mutex
	lastWMs []uint64
	last    *AuditReport
	stop    chan struct{}
	done    chan struct{}
	// tickSrc, when set by a test, replaces the loop's ticker with a
	// channel the test drives, so it can count passes exactly.
	tickSrc <-chan time.Time
}

// NewAuditor builds an auditor over the managers (at least one). It does
// not start a loop; call Start for a periodic cadence or RunOnce on demand.
func NewAuditor(ms []*core.Manager, cfg AuditorConfig) *Auditor {
	reg := cfg.Metrics
	if reg == nil {
		reg = ms[0].Metrics()
	}
	return &Auditor{
		ms:          ms,
		passes:      reg.Counter("audit.passes"),
		violations:  reg.Gauge("audit.violations"),
		cacheDrift:  reg.Gauge("audit.cache_bytes_drift"),
		staleGuards: reg.Gauge("audit.recycler_stale_guards"),
	}
}

// RunOnce executes one invariant pass over every manager, in order, then
// compares each watermark with the previous pass's, and publishes the
// metrics. It is safe from any goroutine (the underlying audits take the
// Execute-path lock order) — the Start loop, on-demand callers, and tests
// all call it directly.
func (a *Auditor) RunOnce() AuditReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := AuditReport{UnixMS: time.Now().UnixMilli(), Violations: []string{}}
	var drift, stale int64
	for i, m := range a.ms {
		sa := ShardAudit{Cache: m.AuditCache(), Recycler: m.AuditRecycler()}
		found := sa.Cache.Violations
		if sa.Recycler != nil {
			found = append(found[:len(found):len(found)], sa.Recycler.Violations...)
			stale += int64(sa.Recycler.StaleGuards)
		}
		for _, v := range found {
			rep.Violations = append(rep.Violations, fmt.Sprintf("shard %d: %s", i, v))
		}
		drift += abs(int64(sa.Cache.AccountedBytes) - int64(sa.Cache.SummedBytes))
		if wm := sa.Cache.Watermark; i < len(a.lastWMs) && wm < a.lastWMs[i] {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"shard %d: watermark moved backwards across passes: %d -> %d", i, a.lastWMs[i], wm))
		}
		rep.Shards = append(rep.Shards, sa)
	}
	a.lastWMs = a.lastWMs[:0]
	for _, sa := range rep.Shards {
		a.lastWMs = append(a.lastWMs, sa.Cache.Watermark)
	}
	rep.OK = len(rep.Violations) == 0
	a.passes.Inc()
	a.violations.Set(int64(len(rep.Violations)))
	a.cacheDrift.Set(drift)
	a.staleGuards.Set(stale)
	rep.Passes = a.passes.Value()
	a.last = &rep
	return rep
}

func abs(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}

// Last returns the most recent report, running a pass first if none has
// completed yet — so /debug/audit always has something to serve.
func (a *Auditor) Last() AuditReport {
	a.mu.Lock()
	last := a.last
	a.mu.Unlock()
	if last != nil {
		return *last
	}
	return a.RunOnce()
}

// Start launches the periodic audit loop.
func (a *Auditor) Start(interval time.Duration) {
	if interval <= 0 {
		interval = DefaultAuditInterval
	}
	a.mu.Lock()
	if a.stop != nil {
		a.mu.Unlock()
		return
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	stop, done, ticks := a.stop, a.done, a.tickSrc
	a.mu.Unlock()
	go func() {
		defer close(done)
		if ticks == nil {
			t := time.NewTicker(interval)
			defer t.Stop()
			ticks = t.C
		}
		for {
			select {
			case <-stop:
				return
			case <-ticks:
				a.RunOnce()
			}
		}
	}()
}

// Stop halts the standalone loop (no-op when Start was never called).
func (a *Auditor) Stop() {
	a.mu.Lock()
	stop, done := a.stop, a.done
	a.stop, a.done = nil, nil
	a.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
