package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// SLO tracker defaults: a 50 ms latency target at 99.5% availability,
// judged over a 60-slot long window with a 6-slot short window (one minute
// and six seconds at the sampler's one-second rotation cadence).
const (
	DefaultSLOTarget     = 50 * time.Millisecond
	DefaultSLOObjective  = 0.995
	DefaultSLOSlots      = 60
	DefaultSLOShortSlots = 6
)

// SLOConfig configures an SLO tracker. Zero fields take the defaults
// above.
type SLOConfig struct {
	// Target is the latency objective: a successful execution at or under
	// Target counts as good, anything slower (or failed) burns budget.
	Target time.Duration
	// Objective is the target good fraction (e.g. 0.995 = 99.5%); the
	// error budget is 1-Objective.
	Objective float64
	// Slots is the long-window ring size; ShortSlots the number of most
	// recent slots the fast burn-rate signal is judged over.
	Slots, ShortSlots int
}

// sloSlot is one rotation period's tally.
type sloSlot struct {
	good, bad atomic.Int64
}

// SLO tracks a latency service-level objective over a rotating window,
// exposing error-budget burn rates over a short window (fast, reacts to
// incidents) and the long window (slow, reflects sustained health) — the
// standard multi-window burn-rate alerting shape. Record is lock-free
// atomics on the hot path; Rotate is driven externally on a fixed cadence,
// like Window. A nil *SLO discards records.
type SLO struct {
	target    time.Duration
	objective float64
	short     int
	slots     []sloSlot
	cur       atomic.Int32
	rotations atomic.Int64
}

// NewSLO returns a tracker for the given objective.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Target <= 0 {
		cfg.Target = DefaultSLOTarget
	}
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = DefaultSLOObjective
	}
	if cfg.Slots < 2 {
		cfg.Slots = DefaultSLOSlots
	}
	if cfg.ShortSlots <= 0 || cfg.ShortSlots > cfg.Slots {
		cfg.ShortSlots = DefaultSLOShortSlots
		if cfg.ShortSlots > cfg.Slots {
			cfg.ShortSlots = cfg.Slots
		}
	}
	return &SLO{
		target:    cfg.Target,
		objective: cfg.Objective,
		short:     cfg.ShortSlots,
		slots:     make([]sloSlot, cfg.Slots),
	}
}

// Enabled reports whether records are being tracked (nil-safe).
func (s *SLO) Enabled() bool { return s != nil }

// Target returns the latency objective (0 on a nil tracker).
func (s *SLO) Target() time.Duration {
	if s == nil {
		return 0
	}
	return s.target
}

// Record classifies one execution against the objective.
func (s *SLO) Record(d time.Duration, failed bool) {
	if s == nil {
		return
	}
	slot := &s.slots[s.cur.Load()]
	if failed || d > s.target {
		slot.bad.Add(1)
	} else {
		slot.good.Add(1)
	}
}

// Rotate advances the window one slot, clearing the slot that ages in as
// current — same discipline as Window.Rotate.
func (s *SLO) Rotate() {
	if s == nil {
		return
	}
	next := (s.cur.Load() + 1) % int32(len(s.slots))
	s.slots[next].good.Store(0)
	s.slots[next].bad.Store(0)
	s.cur.Store(next)
	s.rotations.Add(1)
}

// SLOReport is a point-in-time view of the tracker: totals and burn rates
// over both windows. A burn rate of 1.0 means the error budget is being
// consumed exactly at the sustainable pace; >1 means it will be exhausted
// before the window ends.
type SLOReport struct {
	TargetUS    int64   `json:"target_us"`
	Objective   float64 `json:"objective"`
	WindowSlots int     `json:"window_slots"`
	ShortSlots  int     `json:"short_slots"`
	Rotations   int64   `json:"rotations"`

	LongTotal  int64 `json:"long_total"`
	LongBad    int64 `json:"long_bad"`
	ShortTotal int64 `json:"short_total"`
	ShortBad   int64 `json:"short_bad"`

	// LongGoodFrac/ShortGoodFrac are the achieved good fractions (1.0 when
	// the window is empty — an idle service is meeting its SLO).
	LongGoodFrac  float64 `json:"long_good_frac"`
	ShortGoodFrac float64 `json:"short_good_frac"`
	// BurnLong/BurnShort are bad-fraction ÷ error-budget per window.
	BurnLong  float64 `json:"burn_long"`
	BurnShort float64 `json:"burn_short"`
	// BudgetRemaining is the unspent fraction of the long window's error
	// budget (clamped at 0).
	BudgetRemaining float64 `json:"budget_remaining"`
}

// Report summarizes the tracker's current state.
func (s *SLO) Report() SLOReport {
	if s == nil {
		return SLOReport{}
	}
	r := SLOReport{
		TargetUS:    int64(s.target / time.Microsecond),
		Objective:   s.objective,
		WindowSlots: len(s.slots),
		ShortSlots:  s.short,
		Rotations:   s.rotations.Load(),
	}
	cur := int(s.cur.Load())
	n := len(s.slots)
	for i := 0; i < n; i++ {
		good := s.slots[i].good.Load()
		bad := s.slots[i].bad.Load()
		r.LongTotal += good + bad
		r.LongBad += bad
		// Distance backwards from the current slot, 0..n-1.
		back := (cur - i + n) % n
		if back < s.short {
			r.ShortTotal += good + bad
			r.ShortBad += bad
		}
	}
	budget := 1 - s.objective
	frac := func(bad, total int64) (goodFrac, burn float64) {
		if total == 0 {
			return 1, 0
		}
		badFrac := float64(bad) / float64(total)
		return 1 - badFrac, badFrac / budget
	}
	r.LongGoodFrac, r.BurnLong = frac(r.LongBad, r.LongTotal)
	r.ShortGoodFrac, r.BurnShort = frac(r.ShortBad, r.ShortTotal)
	r.BudgetRemaining = 1 - r.BurnLong
	if r.BudgetRemaining < 0 {
		r.BudgetRemaining = 0
	}
	return r
}

// Render writes the report as aligned text — the aggsql \slo payload.
func (r SLOReport) Render(w io.Writer) {
	fmt.Fprintf(w, "SLO: %.2f%% of queries ≤ %s\n",
		r.Objective*100, time.Duration(r.TargetUS)*time.Microsecond)
	fmt.Fprintf(w, "  long window  (%d slots): %6d queries, %5d over budget, good %.3f%%, burn %.2fx\n",
		r.WindowSlots, r.LongTotal, r.LongBad, r.LongGoodFrac*100, r.BurnLong)
	fmt.Fprintf(w, "  short window (%d slots): %6d queries, %5d over budget, good %.3f%%, burn %.2fx\n",
		r.ShortSlots, r.ShortTotal, r.ShortBad, r.ShortGoodFrac*100, r.BurnShort)
	fmt.Fprintf(w, "  error budget remaining: %.1f%%\n", r.BudgetRemaining*100)
}
