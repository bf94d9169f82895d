package core

import (
	"log/slog"
	"sync"
	"time"

	"aggcache/internal/obs"
)

// Governor defaults. The rotation cadence of one second makes a 60-slot
// window a one-minute rolling view; the tick interval is finer so delta
// growth is sampled often enough for the growth-rate signal.
const (
	DefaultGovernorInterval = 100 * time.Millisecond
	DefaultGovernorRotate   = time.Second
	DefaultGovernorCooldown = 2 * time.Second
	DefaultBurnHigh         = 2.0
	DefaultQueueHigh        = 64
)

// GovernorConfig tunes the maintenance governor.
type GovernorConfig struct {
	// Tables are the related transactional tables the governor maintains
	// together (e.g. Header+Item, or the CH order group). Group merges keep
	// their deltas emptying atomically, which join pruning depends on.
	Tables []string
	// Interval is the background tick period (Start); 0 means
	// DefaultGovernorInterval. Deterministic callers drive Tick directly.
	Interval time.Duration
	// Rotate is the cadence at which the rolling windows (latency, SLO,
	// per-shape) advance one slot; 0 means DefaultGovernorRotate.
	Rotate time.Duration
	// DeltaRowsHigh arms a merge once the governed tables' summed delta
	// rows reach it; DeltaRowsLow (default High/4) is the hysteresis floor
	// the deltas must fall back under before the trigger re-arms, so the
	// governor fires once per crossing instead of continuously. 0 disables
	// the delta-rows trigger.
	DeltaRowsHigh int64
	DeltaRowsLow  int64
	// GrowthHigh triggers a merge when the delta growth rate (rows/sec,
	// estimated across ticks) reaches it while deltas are non-trivial —
	// merge early when a write burst is clearly underway. 0 disables.
	GrowthHigh float64
	// CompP99HighUS triggers a merge when the windowed p99 of delta
	// compensation reaches it — queries are visibly paying for delta
	// growth. 0 disables.
	CompP99HighUS int64
	// BurnHigh marks the engine overloaded when the SLO short-window burn
	// rate reaches it (0 means DefaultBurnHigh; requires a Config.SLO
	// tracker on the manager). Overload also triggers a merge when deltas
	// are non-trivial.
	BurnHigh float64
	// QueueHigh marks the engine overloaded at this many in-flight
	// executions; 0 means DefaultQueueHigh.
	QueueHigh int64
	// Cooldown is the minimum gap between governor actions; 0 means
	// DefaultGovernorCooldown. Hysteresis prevents re-triggering on the
	// same crossing; the cooldown bounds action frequency even across
	// distinct signals.
	Cooldown time.Duration
	// AgeHotRows, when positive, enables data aging: once a governed
	// hot/cold table's hot-partition main exceeds it (and all deltas are
	// empty), the governor moves every governed table's boundary to the
	// midpoint between the current split and the commit watermark. Tables
	// must be co-partitioned on the same routing key, like Header/Item.
	AgeHotRows int64
	// Audit, when non-nil, runs on the window-rotation cadence from the
	// governor tick — how a governed process drives the invariant auditor
	// (verify.Auditor.RunOnce) without a second timer goroutine. It runs
	// on the tick goroutine and must not call back into the governor.
	Audit func()
}

// GovernorAction names what a tick did.
type GovernorAction string

const (
	GovNone  GovernorAction = ""
	GovMerge GovernorAction = "merge"
	GovAge   GovernorAction = "age"
)

// OverloadSignal is the exported backpressure signal: the queue-depth and
// burn-rate view a server frontend would shed load on.
type OverloadSignal struct {
	Overloaded bool `json:"overloaded"`
	// QueueDepth is the in-flight execution count at the last tick.
	QueueDepth int64 `json:"queue_depth"`
	// BurnShort is the SLO short-window error-budget burn rate (0 without
	// an SLO tracker).
	BurnShort float64 `json:"burn_short"`
	// DeltaRows and GrowthPerSec describe the governed tables' delta
	// pressure.
	DeltaRows    int64   `json:"delta_rows"`
	GrowthPerSec float64 `json:"growth_rows_per_sec"`
}

// GovernorSnapshot is the /debug/slo governor section: configuration
// thresholds, last-tick signals, and action counters.
type GovernorSnapshot struct {
	Tables        []string       `json:"tables"`
	DeltaRowsHigh int64          `json:"delta_rows_high"`
	DeltaRowsLow  int64          `json:"delta_rows_low"`
	CompP99HighUS int64          `json:"comp_p99_high_us,omitempty"`
	GrowthHigh    float64        `json:"growth_high,omitempty"`
	AgeHotRows    int64          `json:"age_hot_rows,omitempty"`
	Ticks         int64          `json:"ticks"`
	Merges        int64          `json:"merges"`
	Ages          int64          `json:"ages"`
	Armed         bool           `json:"armed"`
	LastAction    string         `json:"last_action,omitempty"`
	LastReason    string         `json:"last_reason,omitempty"`
	CompP99US     int64          `json:"comp_p99_us"`
	Overload      OverloadSignal `json:"overload"`
}

// Governor is the metrics-driven maintenance controller: it closes the
// loop from the telemetry layer back to the engine by watching delta
// growth, windowed compensation cost, and SLO burn, and triggering online
// merges (and optionally aging) with hysteresis and a cooldown. One
// governor serves one manager; Start runs it on a background ticker, while
// deterministic harnesses (tests, difftest) drive Tick with an explicit
// clock and never start the goroutine.
type Governor struct {
	m   *Manager
	cfg GovernorConfig

	mu         sync.Mutex
	stop, done chan struct{}
	lastRotate time.Time
	lastTick   time.Time
	lastRows   int64
	growth     float64
	armed      bool
	lastAction time.Time
	lastKind   GovernorAction
	lastReason string
	ticks      int64
	merges     int64
	ages       int64
	overload   OverloadSignal
	compP99    int64

	// Published signal gauges (governor.* in /metrics and the Prometheus
	// exposition).
	gTicks      *obs.Counter // governor.ticks
	gMerges     *obs.Counter // governor.merges
	gAges       *obs.Counter // governor.ages
	gDeltaRows  *obs.Gauge   // governor.delta_rows
	gOverloaded *obs.Gauge   // governor.overloaded (0/1)
	gBurnShortK *obs.Gauge   // governor.burn_short_x1000
	gQueue      *obs.Gauge   // governor.queue_depth

	// tickSrc, when set by a test, replaces the loop's ticker with a
	// channel the test drives, so it can count ticks exactly.
	tickSrc <-chan time.Time
}

// NewGovernor builds a governor over the manager's database and telemetry.
// Zero config fields take the defaults documented on GovernorConfig.
func NewGovernor(m *Manager, cfg GovernorConfig) *Governor {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultGovernorInterval
	}
	if cfg.Rotate <= 0 {
		cfg.Rotate = DefaultGovernorRotate
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultGovernorCooldown
	}
	if cfg.DeltaRowsHigh > 0 && cfg.DeltaRowsLow <= 0 {
		cfg.DeltaRowsLow = cfg.DeltaRowsHigh / 4
	}
	if cfg.BurnHigh <= 0 {
		cfg.BurnHigh = DefaultBurnHigh
	}
	if cfg.QueueHigh <= 0 {
		cfg.QueueHigh = DefaultQueueHigh
	}
	reg := m.obs.reg
	return &Governor{
		m:           m,
		cfg:         cfg,
		armed:       true,
		gTicks:      reg.Counter("governor.ticks"),
		gMerges:     reg.Counter("governor.merges"),
		gAges:       reg.Counter("governor.ages"),
		gDeltaRows:  reg.Gauge("governor.delta_rows"),
		gOverloaded: reg.Gauge("governor.overloaded"),
		gBurnShortK: reg.Gauge("governor.burn_short_x1000"),
		gQueue:      reg.Gauge("governor.queue_depth"),
	}
}

// Start launches the background control loop; starting a running governor
// is a no-op. Stop halts it.
func (g *Governor) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stop != nil {
		return
	}
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	go g.loop(g.stop, g.done)
}

func (g *Governor) loop(stop, done chan struct{}) {
	defer close(done)
	ticks := g.tickSrc
	if ticks == nil {
		t := time.NewTicker(g.cfg.Interval)
		defer t.Stop()
		ticks = t.C
	}
	for {
		select {
		case <-stop:
			return
		case now := <-ticks:
			g.Tick(now)
		}
	}
}

// Stop halts the control loop and waits for it to exit; stopping a
// stopped governor is a no-op.
func (g *Governor) Stop() {
	g.mu.Lock()
	stop, done := g.stop, g.done
	g.stop, g.done = nil, nil
	g.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// signals is the state of the governed tables read under the DB read lock.
type govSignals struct {
	deltaRows   int64
	hotMainRows int64
	deltasEmpty bool
	mergeActive bool
	twoParts    bool
	coldHi      int64
	watermark   int64
}

// readSignals samples the governed tables under the read lock — delta
// stores are plain slices, so unlocked reads would race with writers.
func (g *Governor) readSignals() govSignals {
	db := g.m.db
	db.RLock()
	defer db.RUnlock()
	s := govSignals{deltasEmpty: true, twoParts: len(g.cfg.Tables) > 0}
	for ti, name := range g.cfg.Tables {
		t := db.Table(name)
		if t == nil {
			continue
		}
		if db.MergeActive(name) {
			s.mergeActive = true
		}
		parts := t.Partitions()
		if len(parts) != 2 {
			s.twoParts = false
		} else {
			if ti == 0 {
				s.coldHi = parts[0].Hi
			}
			if rows := parts[1].Main.Rows(); int64(rows) > s.hotMainRows {
				s.hotMainRows = int64(rows)
			}
		}
		for _, p := range parts {
			if n := p.Delta.Rows(); n > 0 {
				s.deltaRows += int64(n)
				s.deltasEmpty = false
			}
		}
	}
	s.watermark = int64(db.Txns().Watermark())
	return s
}

// Tick runs one control-loop step at the given time: rotate the rolling
// windows on cadence, sample the signals, and trigger at most one
// maintenance action. It is the deterministic core of the governor —
// tests and the differential harness call it with a synthetic clock.
func (g *Governor) Tick(now time.Time) (GovernorAction, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ticks++
	g.gTicks.Inc()

	if g.lastRotate.IsZero() || now.Sub(g.lastRotate) >= g.cfg.Rotate {
		g.m.RotateWindows()
		g.lastRotate = now
		if g.cfg.Audit != nil {
			g.cfg.Audit()
		}
	}

	s := g.readSignals()
	if !g.lastTick.IsZero() {
		if dt := now.Sub(g.lastTick).Seconds(); dt > 0 {
			g.growth = float64(s.deltaRows-g.lastRows) / dt
		}
	}
	g.lastTick, g.lastRows = now, s.deltaRows
	g.compP99 = g.m.CompWindow().Snapshot().P99US

	burnShort := 0.0
	if g.m.slo.Enabled() {
		burnShort = g.m.slo.Report().BurnShort
	}
	queue := g.m.InflightQueries()
	g.overload = OverloadSignal{
		QueueDepth:   queue,
		BurnShort:    burnShort,
		DeltaRows:    s.deltaRows,
		GrowthPerSec: g.growth,
	}
	g.overload.Overloaded = burnShort >= g.cfg.BurnHigh || queue >= g.cfg.QueueHigh
	g.publish()

	// Hysteresis: the delta-rows trigger re-arms only after the deltas
	// fall back under the low-water mark (a merge empties them).
	if g.cfg.DeltaRowsHigh > 0 && s.deltaRows <= g.cfg.DeltaRowsLow {
		g.armed = true
	}

	if s.mergeActive {
		return GovNone, nil
	}
	if !g.lastAction.IsZero() && now.Sub(g.lastAction) < g.cfg.Cooldown {
		return GovNone, nil
	}

	// Merge triggers, in priority order. All of them require some delta to
	// merge; the non-rows signals additionally wait for the deltas to be
	// past the hysteresis floor so a merge actually relieves pressure.
	reason := ""
	switch {
	case g.cfg.DeltaRowsHigh > 0 && g.armed && s.deltaRows >= g.cfg.DeltaRowsHigh:
		reason = "delta-rows"
	case g.cfg.CompP99HighUS > 0 && g.compP99 >= g.cfg.CompP99HighUS && s.deltaRows > g.cfg.DeltaRowsLow:
		reason = "comp-p99"
	case g.cfg.GrowthHigh > 0 && g.growth >= g.cfg.GrowthHigh && s.deltaRows > g.cfg.DeltaRowsLow:
		reason = "delta-growth"
	case g.overload.Overloaded && s.deltaRows > g.cfg.DeltaRowsLow:
		reason = "slo-burn"
	}
	if reason != "" {
		return g.act(GovMerge, reason, now, s)
	}

	// Aging: administrative, so it waits for settled data — empty deltas,
	// two-partition tables, and a hot main past the threshold.
	if g.cfg.AgeHotRows > 0 && s.twoParts && s.deltasEmpty &&
		s.hotMainRows >= g.cfg.AgeHotRows && s.watermark > s.coldHi+1 {
		return g.act(GovAge, "hot-main-rows", now, s)
	}
	return GovNone, nil
}

// act performs one maintenance action. Callers hold g.mu.
func (g *Governor) act(kind GovernorAction, reason string, now time.Time, s govSignals) (GovernorAction, error) {
	g.lastAction, g.lastKind, g.lastReason = now, kind, reason
	g.armed = false
	var err error
	switch kind {
	case GovMerge:
		err = g.merge()
		if err == nil {
			g.merges++
			g.gMerges.Inc()
		}
	case GovAge:
		// Move the boundary to the midpoint between the current split and
		// the watermark; every governed table ages at the same split so
		// co-partitioned objects stay together.
		split := s.coldHi + (s.watermark-s.coldHi)/2
		if split <= s.coldHi {
			split = s.coldHi + 1
		}
		for _, name := range g.cfg.Tables {
			if err = g.m.db.AgeOnline(name, split); err != nil {
				break
			}
		}
		if err == nil {
			g.ages++
			g.gAges.Inc()
		}
	}
	if g.m.ev.Enabled() {
		ev := "governor.merge"
		if kind == GovAge {
			ev = "governor.age"
		}
		attrs := []slog.Attr{
			slog.String("reason", reason),
			slog.Int64("delta_rows", s.deltaRows),
			slog.Float64("growth_rows_per_sec", g.growth),
			slog.Int64("comp_p99_us", g.compP99),
		}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		g.m.ev.Emit(ev, attrs...)
	}
	return kind, err
}

// merge drains the governed deltas online. Single-partition tables (and
// partition 0 of partitioned ones) merge as one synchronized group — their
// deltas empty atomically, which join pruning depends on — and any
// remaining partitions with delta rows follow individually.
func (g *Governor) merge() error {
	db := g.m.db
	if err := db.MergeTablesOnline(false, g.cfg.Tables...); err != nil {
		return err
	}
	for _, name := range g.cfg.Tables {
		t := db.Table(name)
		if t == nil {
			continue
		}
		for pi := range t.Partitions() {
			if pi == 0 {
				continue
			}
			db.RLock()
			n := t.Partitions()[pi].Delta.Rows()
			db.RUnlock()
			if n == 0 {
				continue
			}
			if _, err := db.MergeOnline(name, pi, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// publish mirrors the last-tick signals into the registry gauges so the
// Prometheus exposition and /metrics carry them. Callers hold g.mu.
func (g *Governor) publish() {
	g.gDeltaRows.Set(g.overload.DeltaRows)
	g.gQueue.Set(g.overload.QueueDepth)
	g.gBurnShortK.Set(int64(g.overload.BurnShort * 1000))
	if g.overload.Overloaded {
		g.gOverloaded.Set(1)
	} else {
		g.gOverloaded.Set(0)
	}
}

// Overload returns the exported backpressure signal as of the last tick —
// what a server frontend sheds load on.
func (g *Governor) Overload() OverloadSignal {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.overload
}

// Snapshot reports the governor's configuration, signals, and action
// counters — the governor section of /debug/slo and \slo.
func (g *Governor) Snapshot() GovernorSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GovernorSnapshot{
		Tables:        append([]string(nil), g.cfg.Tables...),
		DeltaRowsHigh: g.cfg.DeltaRowsHigh,
		DeltaRowsLow:  g.cfg.DeltaRowsLow,
		CompP99HighUS: g.cfg.CompP99HighUS,
		GrowthHigh:    g.cfg.GrowthHigh,
		AgeHotRows:    g.cfg.AgeHotRows,
		Ticks:         g.ticks,
		Merges:        g.merges,
		Ages:          g.ages,
		Armed:         g.armed,
		LastAction:    string(g.lastKind),
		LastReason:    g.lastReason,
		CompP99US:     g.compP99,
		Overload:      g.overload,
	}
}
