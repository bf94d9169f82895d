package obs

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRingWraps(t *testing.T) {
	r := NewRing[Sample](3)
	if got := r.Len(); got != 0 {
		t.Fatalf("empty ring Len = %d", got)
	}
	for i := 1; i <= 5; i++ {
		r.Push(Sample{UnixMS: int64(i), Value: float64(i)})
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	got := r.Snapshot()
	want := []int64{3, 4, 5}
	for i, s := range got {
		if s.UnixMS != want[i] {
			t.Fatalf("samples = %v, want timestamps %v", got, want)
		}
	}
	// Partial fill stays oldest-first too.
	r2 := NewRing[Sample](4)
	r2.Push(Sample{UnixMS: 7})
	r2.Push(Sample{UnixMS: 8})
	s2 := r2.Snapshot()
	if len(s2) != 2 || s2[0].UnixMS != 7 || s2[1].UnixMS != 8 {
		t.Fatalf("partial samples = %v", s2)
	}
}

func TestSamplerScrapesAllMetricKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.hits").Add(5)
	r.Gauge("cache.bytes").Set(1024)
	r.Histogram("latency.query").Observe(100 * time.Microsecond)
	r.Histogram("latency.query").Observe(200 * time.Microsecond)

	s := NewSampler(r, SamplerConfig{Interval: time.Hour, Capacity: 8})
	fake := time.UnixMilli(1000)
	s.now = func() time.Time { return fake }
	s.SampleOnce()
	r.Counter("cache.hits").Add(2)
	fake = time.UnixMilli(2000)
	s.SampleOnce()

	dump := s.Dump()
	hits := dump["cache.hits"]
	if len(hits) != 2 || hits[0].Value != 5 || hits[1].Value != 7 {
		t.Fatalf("cache.hits series = %v", hits)
	}
	if hits[0].UnixMS != 1000 || hits[1].UnixMS != 2000 {
		t.Fatalf("cache.hits timestamps = %v", hits)
	}
	if g := dump["cache.bytes"]; len(g) != 2 || g[0].Value != 1024 {
		t.Fatalf("cache.bytes series = %v", g)
	}
	for _, suffix := range []string{".count", ".mean_us", ".p50_us", ".p99_us"} {
		if _, ok := dump["latency.query"+suffix]; !ok {
			t.Fatalf("missing histogram-derived series latency.query%s; have %v", suffix, s.SeriesNames())
		}
	}
	if c := dump["latency.query.count"]; c[0].Value != 2 {
		t.Fatalf("latency.query.count = %v, want 2", c)
	}
}

// TestSamplerStartStop drives the loop from an injected tick channel: every
// tick is one scrape, Stop waits for the loop to finish, no loop receives
// ticks after Stop, and a stopped sampler restarts.
func TestSamplerStartStop(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	s := NewSampler(r, SamplerConfig{Capacity: 16})
	ticks := make(chan time.Time)
	s.tickSrc = ticks
	s.Start()
	s.Start() // idempotent
	for i := 0; i < 3; i++ {
		ticks <- time.Time{}
	}
	s.Stop()
	s.Stop() // idempotent
	if got := len(s.Dump()["c"]); got != 3 {
		t.Fatalf("3 ticks scraped %d samples", got)
	}
	select {
	case ticks <- time.Time{}:
		t.Fatal("a scrape loop still receives ticks after Stop")
	default:
	}
	// Restartable after Stop.
	s.Start()
	ticks <- time.Time{}
	ticks <- time.Time{}
	s.Stop()
	if got := len(s.Dump()["c"]); got != 5 {
		t.Fatalf("after restart and 2 more ticks: %d samples, want 5", got)
	}
}

// TestSamplerConcurrentStop hammers Stop from many goroutines at once
// (run under -race in CI): exactly one caller closes the stop channel, the
// rest are no-ops, and no scrape goroutine survives — repeated
// start/stop cycles must leave the goroutine count where it began.
func TestSamplerConcurrentStop(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRegistry()
	r.Counter("c").Inc()
	for cycle := 0; cycle < 10; cycle++ {
		s := NewSampler(r, SamplerConfig{Interval: time.Millisecond, Capacity: 8})
		s.Start()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Stop()
			}()
		}
		wg.Wait()
		s.Stop() // double Stop after the race settles: still a no-op
	}
	// The loop goroutine exits before Stop returns (<-done), so any excess
	// here is a leak, not scheduling lag — but allow a short settle for
	// unrelated runtime goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after 10 start/stop cycles", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSamplerHotPathAllocs is the acceptance-criteria guard: with a sampler
// scraping the registry as fast as it can, the query hot path's metric
// updates must still be allocation-free — sampling reads the same atomics
// the writers update and takes no lock the write side contends on.
func TestSamplerHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	g := r.Gauge("bytes")
	h := r.Histogram("lat")
	s := NewSampler(r, SamplerConfig{Interval: time.Microsecond, Capacity: 64})
	s.Start()
	defer s.Stop()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		g.Set(42)
		h.Observe(137 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f per op with sampler running, want 0", allocs)
	}
}

// TestSamplerRotates pins the process window rotation: a sampler wired
// with a Rotate hook fires it on the RotateEvery cadence — at most once per
// due interval, never more — so SLO windows and per-shape quantiles rotate.
func TestSamplerRotates(t *testing.T) {
	r := NewRegistry()
	rotations := 0
	s := NewSampler(r, SamplerConfig{
		Interval:    time.Hour,
		Capacity:    8,
		Rotate:      func() { rotations++ },
		RotateEvery: time.Second,
	})
	fake := time.UnixMilli(0)
	s.now = func() time.Time { return fake }

	s.SampleOnce() // first scrape seeds lastRotate and rotates once
	if rotations != 1 {
		t.Fatalf("rotations after first scrape = %d, want 1", rotations)
	}
	fake = fake.Add(500 * time.Millisecond)
	s.SampleOnce() // not due yet
	if rotations != 1 {
		t.Fatalf("rotated before RotateEvery elapsed: %d", rotations)
	}
	fake = fake.Add(600 * time.Millisecond)
	s.SampleOnce() // 1.1s since last rotation
	if rotations != 2 {
		t.Fatalf("rotations after due interval = %d, want 2", rotations)
	}
}
