package obs

import (
	"sort"
	"sync"
	"time"
)

// Sample is one time-series observation.
type Sample struct {
	// UnixMS is the sample time in milliseconds since the Unix epoch.
	UnixMS int64 `json:"t_ms"`
	// Value is the sampled metric value (counter/gauge reading, or a
	// histogram-derived statistic).
	Value float64 `json:"v"`
}

// SamplerConfig tunes the background sampler.
type SamplerConfig struct {
	// Interval is the scrape period; 0 means DefaultSampleInterval.
	Interval time.Duration
	// Capacity is the per-series ring size; 0 means DefaultSampleCapacity.
	Capacity int
	// Rotate, when non-nil, is invoked from the scrape loop every
	// RotateEvery (DefaultRotateEvery when zero). Ungoverned processes
	// wire core.Manager.RotateWindows here so the SLO tracker and
	// per-shape quantiles keep rotating when no Governor runs; governed
	// processes leave it nil (the Governor tick already rotates).
	Rotate func()
	// RotateEvery is the rotation cadence for Rotate.
	RotateEvery time.Duration
}

// DefaultRotateEvery is the sampler-driven window-rotation cadence used
// when SamplerConfig.Rotate is set without a RotateEvery.
const DefaultRotateEvery = time.Second

// Sampler defaults: one scrape per second, ten minutes of history.
const (
	DefaultSampleInterval = time.Second
	DefaultSampleCapacity = 600
)

// Sampler periodically scrapes a Registry into per-metric ring-buffer time
// series. Counters and gauges sample their value under the metric's own
// name; each histogram contributes derived series suffixed ".count",
// ".mean_us", ".p50_us", and ".p99_us".
//
// The scrape reads the same atomics the hot path writes — it takes the
// registry's handle-resolution mutex briefly, but never blocks or slows a
// Counter.Add/Histogram.Observe, so sampling adds zero cost (and zero
// allocations) to query execution. TestSamplerHotPathAllocs asserts this.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	capacity int

	rotate      func()
	rotateEvery time.Duration

	mu         sync.Mutex
	series     map[string]*Ring[Sample]
	stop       chan struct{}
	done       chan struct{}
	lastRotate time.Time

	// now is stubbed by tests.
	now func() time.Time
}

// NewSampler returns a sampler over reg; call Start to begin scraping.
func NewSampler(reg *Registry, cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSampleInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultSampleCapacity
	}
	if cfg.RotateEvery <= 0 {
		cfg.RotateEvery = DefaultRotateEvery
	}
	return &Sampler{
		reg:         reg,
		interval:    cfg.Interval,
		capacity:    cfg.Capacity,
		rotate:      cfg.Rotate,
		rotateEvery: cfg.RotateEvery,
		series:      make(map[string]*Ring[Sample]),
		now:         time.Now,
	}
}

// Start launches the background scrape loop. Starting a running sampler is
// a no-op.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

func (s *Sampler) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.SampleOnce()
		}
	}
}

// Stop halts the scrape loop and waits for it to exit. Stopping a stopped
// sampler is a no-op; the collected series remain readable.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// SampleOnce takes one scrape immediately — the loop body, also usable
// standalone (tests, a final flush before dumping). When a Rotate hook is
// configured it fires here on its own cadence, so a scraping sampler keeps
// the SLO/shape windows fresh without a separate goroutine.
func (s *Sampler) SampleOnce() {
	if s.rotate != nil {
		now := s.now()
		s.mu.Lock()
		due := s.lastRotate.IsZero() || now.Sub(s.lastRotate) >= s.rotateEvery
		if due {
			s.lastRotate = now
		}
		s.mu.Unlock()
		if due {
			// The rotation callback reaches into the manager; call it
			// outside s.mu so a slow rotation never blocks Dump().
			s.rotate()
		}
	}
	snap := s.reg.Snapshot()
	t := s.now().UnixMilli()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, v := range snap.Counters {
		s.push(name, t, float64(v))
	}
	for name, v := range snap.Gauges {
		s.push(name, t, float64(v))
	}
	for name, h := range snap.Histograms {
		s.push(name+".count", t, float64(h.Count))
		s.push(name+".mean_us", t, h.MeanUS)
		s.push(name+".p50_us", t, float64(h.P50US))
		s.push(name+".p99_us", t, float64(h.P99US))
	}
}

// push appends to a series, creating its ring on first sight; callers hold
// s.mu.
func (s *Sampler) push(name string, t int64, v float64) {
	r, ok := s.series[name]
	if !ok {
		r = NewRing[Sample](s.capacity)
		s.series[name] = r
	}
	r.Push(Sample{UnixMS: t, Value: v})
}

// Dump copies every series oldest-first, keyed by series name — the
// /debug/series payload. Map keys marshal to JSON in sorted order, so the
// dump is deterministic.
func (s *Sampler) Dump() map[string][]Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]Sample, len(s.series))
	for name, r := range s.series {
		out[name] = r.Snapshot()
	}
	return out
}

// SeriesNames lists the collected series names, sorted.
func (s *Sampler) SeriesNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.series))
	for n := range s.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
