package obs

import (
	"sync/atomic"
	"time"
)

// DefaultWindowSlots is the slot count windows default to: with the
// sampler's one-second rotation cadence it yields a one-minute rolling
// view.
const DefaultWindowSlots = 60

// Window is a rolling-window latency histogram: a ring of the fixed-bucket
// Histograms, one per time slot. Observations land in the current slot;
// Rotate clears the oldest slot and makes it current, so a snapshot merges
// the last len(slots) rotation periods. Observe is branch-light atomics —
// the same hot-path cost as a plain Histogram — and a nil *Window discards
// observations. Rotation is driven externally (the sampler's tick or a
// test), which keeps the hot path free of clock reads.
//
// An observation racing a concurrent Rotate may land in the slot being
// cleared and be lost; that single-sample noise is acceptable for
// telemetry and keeps Observe lock-free.
type Window struct {
	slots     []Histogram
	cur       atomic.Int32
	rotations atomic.Int64
}

// NewWindow returns a window of the given slot count (minimum 2;
// non-positive means DefaultWindowSlots).
func NewWindow(slots int) *Window {
	if slots <= 0 {
		slots = DefaultWindowSlots
	}
	if slots < 2 {
		slots = 2
	}
	return &Window{slots: make([]Histogram, slots)}
}

// Observe records one duration into the current slot.
func (w *Window) Observe(d time.Duration) {
	if w == nil {
		return
	}
	w.slots[w.cur.Load()].Observe(d)
}

// Rotate advances the window one slot: the oldest slot is cleared and
// becomes the new current slot. Call on a fixed cadence; slot count ×
// cadence is the window span.
func (w *Window) Rotate() {
	if w == nil {
		return
	}
	next := (w.cur.Load() + 1) % int32(len(w.slots))
	w.slots[next].reset()
	w.cur.Store(next)
	w.rotations.Add(1)
}

// WindowSnapshot is a point-in-time merge of every slot in the window:
// the same shape as a HistogramSnapshot plus the windowed P95 and the
// window geometry.
type WindowSnapshot struct {
	// Slots is the ring size; Rotations how many slots have aged out.
	Slots     int   `json:"slots"`
	Rotations int64 `json:"rotations"`
	Count     int64 `json:"count"`
	SumUS     int64 `json:"sum_us"`
	// MeanUS is SumUS/Count (0 when empty).
	MeanUS float64 `json:"mean_us"`
	// P50US/P95US/P99US are bucket-upper-bound quantile estimates over the
	// merged window.
	P50US int64 `json:"p50_us"`
	P95US int64 `json:"p95_us"`
	P99US int64 `json:"p99_us"`
	// Buckets maps each non-empty merged bucket's upper bound in
	// microseconds to its count.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot merges all slots into one windowed view.
func (w *Window) Snapshot() WindowSnapshot {
	if w == nil {
		return WindowSnapshot{}
	}
	var merged [histBuckets]int64
	s := WindowSnapshot{Slots: len(w.slots), Rotations: w.rotations.Load()}
	for i := range w.slots {
		h := &w.slots[i]
		s.Count += h.count.Load()
		s.SumUS += h.sumUS.Load()
		for b := range h.buckets {
			merged[b] += h.buckets[b].Load()
		}
	}
	if s.Count > 0 {
		s.MeanUS = float64(s.SumUS) / float64(s.Count)
	}
	for b, n := range merged {
		if n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{UpperUS: bucketUpper(b), Count: n})
		}
	}
	// Reuse the histogram quantile estimator over the merged buckets.
	hs := HistogramSnapshot{Count: s.Count, Buckets: s.Buckets}
	s.P50US = hs.quantile(0.50)
	s.P95US = hs.quantile(0.95)
	s.P99US = hs.quantile(0.99)
	return s
}
