package core

import (
	"log/slog"
	"sync"
	"time"

	"aggcache/internal/obs"
)

// DefaultGovernorInterval is the background tick period.
const DefaultGovernorInterval = 100 * time.Millisecond

// GovernorConfig configures the maintenance governor.
type GovernorConfig struct {
	// Tables are the related transactional tables the governor maintains
	// together (e.g. Header+Item, or the CH order group). Group merges keep
	// their deltas emptying atomically, which join pruning depends on.
	Tables []string
	// Interval is the background tick period (Start); 0 means
	// DefaultGovernorInterval. Deterministic callers drive Tick directly.
	Interval time.Duration
}

// Tick verdicts, reported as GovernorSnapshot.LastReason.
const (
	GovMerging     = "merging"          // work reached price; the group merge is running
	GovMerged      = "merged"           // the group merge finished
	GovMergeFailed = "merge-failed"     // the merge returned an error
	GovBelowPrice  = "work-below-price" // deltas pending, not yet paid for
	GovDeltasEmpty = "deltas-empty"     // nothing to merge; the baseline reset
	GovMergeActive = "merge-active"     // a governed table is already merging
)

// GovernorSnapshot is the /debug/slo governor section: what the last tick
// decided and the work it weighed against the price.
type GovernorSnapshot struct {
	Tables     []string `json:"tables"`
	Ticks      int64    `json:"ticks"`
	Merges     int64    `json:"merges"`
	LastReason string   `json:"last_reason,omitempty"`
	// Failures counts merge attempts that returned an error; LastError is
	// the most recent one, kept after later ticks overwrite LastReason.
	Failures  int64  `json:"failures,omitempty"`
	LastError string `json:"last_error,omitempty"`
	// Work is the delta tuples the manager's compensations joined since the
	// baseline, as of the last tick; Price is the rows a group merge of the
	// governed tables would rewrite at that tick.
	Work  int64 `json:"work"`
	Price int64 `json:"price"`
}

// Governor merges a table group once the delta compensation it has caused
// since its last merge has cost what a merge costs — the ski-rental rule:
// total work stays within 2x of the best offline merge schedule, with no
// tuning knob. Work is the manager's tally of compensated delta tuples;
// price is the main+delta rows a group merge rewrites. One governor serves
// one manager; Start runs it on a background ticker, while deterministic
// harnesses (tests, difftest) call Tick and never start the goroutine.
type Governor struct {
	m   *Manager
	cfg GovernorConfig

	// tickMu serializes ticks, merge included; mu guards the reported
	// state below and is never held across a merge, so Snapshot answers
	// while one runs.
	tickMu     sync.Mutex
	mu         sync.Mutex
	stop, done chan struct{}
	base       int64 // Manager.DeltaWork at the last merge attempt or empty-delta tick
	work       int64
	price      int64
	lastReason string
	lastErr    string
	ticks      int64
	merges     int64
	failures   int64

	gTicks  *obs.Counter // governor.ticks
	gMerges *obs.Counter // governor.merges

	// tickSrc, when set by a test, replaces the loop's ticker with a
	// channel the test drives, so it can count ticks exactly.
	tickSrc <-chan time.Time
}

// NewGovernor builds a governor over the manager's database.
func NewGovernor(m *Manager, cfg GovernorConfig) *Governor {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultGovernorInterval
	}
	return &Governor{
		m:       m,
		cfg:     cfg,
		gTicks:  m.obs.reg.Counter("governor.ticks"),
		gMerges: m.obs.reg.Counter("governor.merges"),
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
	g.stop, g.done = make(chan struct{}), make(chan struct{})
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
		case <-ticks:
			g.Tick()
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

// govSignals is the state of the governed tables read under the DB read
// lock — delta stores are plain slices, so unlocked reads would race with
// writers.
type govSignals struct {
	price       int64 // main + delta (+ delta2) rows over every governed partition
	deltasEmpty bool
	mergeActive bool
}

func (g *Governor) readSignals() govSignals {
	db := g.m.db
	db.RLock()
	defer db.RUnlock()
	s := govSignals{deltasEmpty: true}
	for _, name := range g.cfg.Tables {
		t := db.Table(name)
		if t == nil {
			continue
		}
		if db.MergeActive(name) {
			s.mergeActive = true
		}
		for _, p := range t.Partitions() {
			// Rows written while the partition merges online wait in
			// Delta2, which becomes the delta at the swap.
			n := p.Delta.Rows()
			if p.Delta2 != nil {
				n += p.Delta2.Rows()
			}
			s.price += int64(p.Main.Rows() + n)
			if n > 0 {
				s.deltasEmpty = false
			}
		}
	}
	return s
}

// Tick runs one control step: merge the group when no governed table is
// merging, the governed deltas are non-empty, and the work since the
// baseline has reached the price. It reports whether it merged. A merge
// attempt resets the baseline, failed or not — so a failing merge is
// retried only once compensation has paid for another — and so does a tick
// that finds the deltas empty (someone else merged them).
func (g *Governor) Tick() (bool, error) {
	g.tickMu.Lock()
	defer g.tickMu.Unlock()
	s := g.readSignals()
	total := g.m.DeltaWork()

	g.mu.Lock()
	g.ticks++
	g.gTicks.Inc()
	if s.deltasEmpty {
		g.base = total
	}
	g.work, g.price = total-g.base, s.price
	switch {
	case s.mergeActive:
		g.lastReason = GovMergeActive
	case s.deltasEmpty:
		g.lastReason = GovDeltasEmpty
	case g.work < g.price:
		g.lastReason = GovBelowPrice
	default:
		g.lastReason = GovMerging
	}
	work, merge := g.work, g.lastReason == GovMerging
	g.mu.Unlock()
	if !merge {
		return false, nil
	}

	err := g.merge()
	end := g.m.DeltaWork()
	g.mu.Lock()
	g.base = end
	if err != nil {
		g.failures++
		g.lastReason, g.lastErr = GovMergeFailed, err.Error()
	} else {
		g.merges++
		g.gMerges.Inc()
		g.lastReason = GovMerged
	}
	g.mu.Unlock()
	if g.m.ev.Enabled() {
		attrs := []slog.Attr{slog.Int64("work", work), slog.Int64("price", s.price)}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		g.m.ev.Emit("governor.merge", attrs...)
	}
	return err == nil, err
}

// merge drains the governed deltas as one synchronized group merge
// (DB.MergeTablesOnline): every governed partition holding delta rows, hot
// and cold alike, freezes at one snapshot and swaps in one critical
// section, so the deltas empty atomically, which join pruning depends on.
func (g *Governor) merge() error {
	return g.m.db.MergeTablesOnline(false, g.cfg.Tables...)
}

// Snapshot reports the governor's last verdict, its work against the price,
// and its counters — the governor section of /debug/slo and \slo. It never
// waits for a merge.
func (g *Governor) Snapshot() GovernorSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GovernorSnapshot{
		Tables:     append([]string(nil), g.cfg.Tables...),
		Ticks:      g.ticks,
		Merges:     g.merges,
		LastReason: g.lastReason,
		Failures:   g.failures,
		LastError:  g.lastErr,
		Work:       g.work,
		Price:      g.price,
	}
}
