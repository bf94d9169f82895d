package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Shape table defaults: at most 256 distinct shapes (normalized shapes are
// few — constants are elided, so one entry covers every parameterization
// of a query) with a 60-slot rolling latency window per shape.
const (
	DefaultShapeCapacity    = 256
	DefaultShapeWindowSlots = 60
)

// ShapeStats accumulates one normalized query shape's profile: totals plus
// a rolling latency window. All counters are atomics; the owning Shapes
// table serializes creation only.
type ShapeStats struct {
	queries   atomic.Int64
	hits      atomic.Int64
	memoHits  atomic.Int64
	errors    atomic.Int64
	compUS    atomic.Int64
	deltaRows atomic.Int64
	lat       *Window
}

// Shapes is the per-query-shape profile table, keyed by the normalized
// shape fingerprint (query.Query.Shape). Observe is a read-locked map
// lookup plus atomics; new shapes take the write lock once. The table is
// bounded: shapes past capacity are tallied in an overflow counter rather
// than grown without limit. A nil *Shapes discards observations.
type Shapes struct {
	mu        sync.RWMutex
	m         map[string]*ShapeStats
	capacity  int
	slots     int
	overflow  atomic.Int64
	rotations atomic.Int64
}

// NewShapes returns a profile table holding at most capacity shapes
// (non-positive means DefaultShapeCapacity), each with a rolling latency
// window of slots (non-positive means DefaultShapeWindowSlots).
func NewShapes(capacity, slots int) *Shapes {
	if capacity <= 0 {
		capacity = DefaultShapeCapacity
	}
	if slots <= 0 {
		slots = DefaultShapeWindowSlots
	}
	return &Shapes{m: make(map[string]*ShapeStats), capacity: capacity, slots: slots}
}

// Enabled reports whether observations are being tracked (nil-safe).
func (t *Shapes) Enabled() bool { return t != nil }

// stats returns the shape's accumulator, creating it if the table has
// room; nil when the table is full and the shape is new.
func (t *Shapes) stats(shape string) *ShapeStats {
	t.mu.RLock()
	s := t.m[shape]
	t.mu.RUnlock()
	if s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s = t.m[shape]; s != nil {
		return s
	}
	if len(t.m) >= t.capacity {
		t.overflow.Add(1)
		return nil
	}
	s = &ShapeStats{lat: NewWindow(t.slots)}
	t.m[shape] = s
	return s
}

// Observe records one execution of the given shape: its latency, whether
// it was served from the aggregate cache (hit) and, within that, from an
// entry's result memo (memo), whether it failed, and the
// delta-compensation cost it paid (microseconds joining deltaRows
// delta-side tuples).
func (t *Shapes) Observe(shape string, d time.Duration, hit, memo, failed bool, compUS, deltaRows int64) {
	if t == nil || shape == "" {
		return
	}
	s := t.stats(shape)
	if s == nil {
		return
	}
	s.queries.Add(1)
	if hit {
		s.hits.Add(1)
	}
	if memo {
		s.memoHits.Add(1)
	}
	if failed {
		s.errors.Add(1)
	}
	s.compUS.Add(compUS)
	s.deltaRows.Add(deltaRows)
	s.lat.Observe(d)
}

// Rotate advances every shape's latency window one slot — driven on the
// same cadence as the SLO tracker.
func (t *Shapes) Rotate() {
	if t == nil {
		return
	}
	t.mu.RLock()
	for _, s := range t.m {
		s.lat.Rotate()
	}
	t.mu.RUnlock()
	t.rotations.Add(1)
}

// ShapeProfile is one shape's snapshot — the /debug/shapes row.
type ShapeProfile struct {
	Shape   string `json:"shape"`
	Queries int64  `json:"queries"`
	Hits    int64  `json:"hits"`
	// MemoHits counts the hits served from a result memo, without
	// compensation.
	MemoHits int64 `json:"memo_hits"`
	// HitRate is Hits/Queries (0 when empty).
	HitRate float64 `json:"hit_rate"`
	Errors  int64   `json:"errors,omitempty"`
	// MeanCompUS/MeanDeltaRows are the average delta-compensation cost per
	// execution of this shape.
	MeanCompUS    float64 `json:"mean_comp_us"`
	MeanDeltaRows float64 `json:"mean_delta_rows"`
	// Window is the shape's rolling latency view (windowed p50/p95/p99).
	Window WindowSnapshot `json:"window"`
}

// profile snapshots one accumulator.
func (s *ShapeStats) profile(shape string) ShapeProfile {
	p := ShapeProfile{
		Shape:    shape,
		Queries:  s.queries.Load(),
		Hits:     s.hits.Load(),
		MemoHits: s.memoHits.Load(),
		Errors:   s.errors.Load(),
		Window:   s.lat.Snapshot(),
	}
	if p.Queries > 0 {
		p.HitRate = float64(p.Hits) / float64(p.Queries)
		p.MeanCompUS = float64(s.compUS.Load()) / float64(p.Queries)
		p.MeanDeltaRows = float64(s.deltaRows.Load()) / float64(p.Queries)
	}
	return p
}

// Profile returns one shape's snapshot, if the shape has been observed.
func (t *Shapes) Profile(shape string) (ShapeProfile, bool) {
	if t == nil {
		return ShapeProfile{}, false
	}
	t.mu.RLock()
	s := t.m[shape]
	t.mu.RUnlock()
	if s == nil {
		return ShapeProfile{}, false
	}
	return s.profile(shape), true
}

// Profiles snapshots every shape, busiest first (ties broken by shape
// string for determinism) — the /debug/shapes payload.
func (t *Shapes) Profiles() []ShapeProfile {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	out := make([]ShapeProfile, 0, len(t.m))
	for shape, s := range t.m {
		out = append(out, s.profile(shape))
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Queries != out[j].Queries {
			return out[i].Queries > out[j].Queries
		}
		return out[i].Shape < out[j].Shape
	})
	return out
}

// Overflow reports how many observations hit a full table with a new
// shape and were dropped.
func (t *Shapes) Overflow() int64 {
	if t == nil {
		return 0
	}
	return t.overflow.Load()
}
