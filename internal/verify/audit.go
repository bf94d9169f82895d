package verify

import (
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

// AuditReport is one combined invariant pass over the aggregate cache and
// (when configured) the recycler — the /debug/audit payload.
type AuditReport struct {
	UnixMS int64 `json:"unix_ms"`
	// Passes counts completed audit passes including this one.
	Passes int64 `json:"passes"`
	// OK is true when no layer reported a violation.
	OK       bool                  `json:"ok"`
	Cache    core.CacheAuditReport `json:"cache"`
	Recycler *recycler.AuditReport `json:"recycler"`
	// Violations merges both layers' findings (cache first).
	Violations []string `json:"violations"`
}

// Auditor runs background invariant passes over a manager's cache and
// recycler bookkeeping, exporting audit.* metrics and retaining the latest
// report for the debug surface and diagnostics bundle.
type Auditor struct {
	m *core.Manager

	passes      *obs.Counter // audit.passes — completed invariant passes
	violations  *obs.Gauge   // audit.violations — findings in the latest pass
	cacheDrift  *obs.Gauge   // audit.cache_bytes_drift — |accounted − summed| cache bytes
	staleGuards *obs.Gauge   // audit.recycler_stale_guards — recycler entries pending lazy invalidation

	mu   sync.Mutex
	last *AuditReport
	stop chan struct{}
	done chan struct{}
	// tickSrc, when set by a test, replaces the loop's ticker with a
	// channel the test drives, so it can count passes exactly.
	tickSrc <-chan time.Time
}

// NewAuditor builds an auditor over the manager. It does not start a loop;
// call Start for a periodic cadence or RunOnce on demand.
func NewAuditor(m *core.Manager, cfg AuditorConfig) *Auditor {
	reg := cfg.Metrics
	if reg == nil {
		reg = m.Metrics()
	}
	return &Auditor{
		m:           m,
		passes:      reg.Counter("audit.passes"),
		violations:  reg.Gauge("audit.violations"),
		cacheDrift:  reg.Gauge("audit.cache_bytes_drift"),
		staleGuards: reg.Gauge("audit.recycler_stale_guards"),
	}
}

// RunOnce executes one invariant pass and publishes its metrics. It is
// safe from any goroutine (the underlying audits take the Execute-path
// lock order) — the Start loop, on-demand callers, and tests all call it
// directly.
func (a *Auditor) RunOnce() AuditReport {
	rep := AuditReport{
		Cache:      a.m.AuditCache(),
		Recycler:   a.m.AuditRecycler(),
		Violations: []string{},
	}
	rep.UnixMS = rep.Cache.UnixMS
	rep.Violations = append(rep.Violations, rep.Cache.Violations...)
	if rep.Recycler != nil {
		rep.Violations = append(rep.Violations, rep.Recycler.Violations...)
		a.staleGuards.Set(int64(rep.Recycler.StaleGuards))
	}
	rep.OK = len(rep.Violations) == 0
	drift := int64(rep.Cache.AccountedBytes) - int64(rep.Cache.SummedBytes)
	if drift < 0 {
		drift = -drift
	}
	a.passes.Inc()
	a.violations.Set(int64(len(rep.Violations)))
	a.cacheDrift.Set(drift)
	rep.Passes = a.passes.Value()
	a.mu.Lock()
	a.last = &rep
	a.mu.Unlock()
	return rep
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
