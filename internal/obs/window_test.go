package obs

import (
	"testing"
	"time"
)

func TestWindowNilSafe(t *testing.T) {
	var w *Window
	w.Observe(time.Millisecond)
	w.Rotate()
	if s := w.Snapshot(); s.Count != 0 || s.Slots != 0 || s.Rotations != 0 {
		t.Fatalf("nil window snapshot = %+v", s)
	}
}

func TestWindowMergesSlots(t *testing.T) {
	w := NewWindow(4)
	w.Observe(100 * time.Microsecond)
	w.Rotate()
	w.Observe(200 * time.Microsecond)
	w.Observe(300 * time.Microsecond)

	s := w.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3 (slots must merge)", s.Count)
	}
	if s.SumUS != 600 {
		t.Fatalf("sum = %dus, want 600", s.SumUS)
	}
	if s.MeanUS != 200 {
		t.Fatalf("mean = %gus, want 200", s.MeanUS)
	}
	if s.Slots != 4 || s.Rotations != 1 {
		t.Fatalf("geometry = %d slots / %d rotations", s.Slots, s.Rotations)
	}
	if s.P50US <= 0 || s.P99US < s.P50US || s.P95US > s.P99US {
		t.Fatalf("quantiles disordered: p50=%d p95=%d p99=%d", s.P50US, s.P95US, s.P99US)
	}
	if len(s.Buckets) == 0 {
		t.Fatal("no merged buckets")
	}
}

// TestWindowAgesOut: after a full lap of rotations, old observations must
// have been cleared from the merged view.
func TestWindowAgesOut(t *testing.T) {
	w := NewWindow(3)
	w.Observe(time.Millisecond)
	w.Observe(time.Millisecond)
	for i := 0; i < 3; i++ {
		w.Rotate()
	}
	if s := w.Snapshot(); s.Count != 0 {
		t.Fatalf("count = %d after full lap, want 0", s.Count)
	}
	// Fresh observations land normally afterwards.
	w.Observe(time.Millisecond)
	if s := w.Snapshot(); s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
}

func TestWindowMinimumSlots(t *testing.T) {
	if got := len(NewWindow(1).slots); got != 2 {
		t.Fatalf("slots = %d, want clamped to 2", got)
	}
	if got := len(NewWindow(0).slots); got != DefaultWindowSlots {
		t.Fatalf("slots = %d, want default %d", got, DefaultWindowSlots)
	}
}
