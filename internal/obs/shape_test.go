package obs

import (
	"testing"
	"time"
)

func TestShapesNilSafe(t *testing.T) {
	var s *Shapes
	if s.Enabled() {
		t.Fatal("nil Shapes enabled")
	}
	s.Observe("x", time.Millisecond, true, false, false, 1, 2)
	s.Rotate()
	if _, ok := s.Profile("x"); ok {
		t.Fatal("nil Shapes has a profile")
	}
	if s.Profiles() != nil || s.Overflow() != 0 {
		t.Fatal("nil Shapes reports data")
	}
}

func TestShapesAccumulates(t *testing.T) {
	tab := NewShapes(8, 4)
	tab.Observe("A", 100*time.Microsecond, true, true, false, 0, 0)
	tab.Observe("A", 300*time.Microsecond, false, false, false, 150, 30)
	tab.Observe("A", 200*time.Microsecond, true, false, true, 150, 30)
	tab.Observe("", time.Second, false, false, false, 0, 0) // empty shape: dropped

	p, ok := tab.Profile("A")
	if !ok {
		t.Fatal("shape A missing")
	}
	if p.Queries != 3 || p.Hits != 2 || p.MemoHits != 1 || p.Errors != 1 {
		t.Fatalf("profile = %+v", p)
	}
	if p.HitRate < 0.66 || p.HitRate > 0.67 {
		t.Fatalf("hit rate = %g, want 2/3", p.HitRate)
	}
	if p.MeanCompUS != 100 || p.MeanDeltaRows != 20 {
		t.Fatalf("mean comp = %g us, mean delta rows = %g", p.MeanCompUS, p.MeanDeltaRows)
	}
	if p.Window.Count != 3 {
		t.Fatalf("window count = %d, want 3", p.Window.Count)
	}
	if _, ok := tab.Profile("B"); ok {
		t.Fatal("unobserved shape has a profile")
	}
}

// TestShapesProfilesOrdering: busiest shape first, ties broken by shape
// string so the /debug/shapes payload is deterministic.
func TestShapesProfilesOrdering(t *testing.T) {
	tab := NewShapes(8, 4)
	tab.Observe("zz", time.Millisecond, false, false, false, 0, 0)
	tab.Observe("aa", time.Millisecond, false, false, false, 0, 0)
	tab.Observe("mm", time.Millisecond, false, false, false, 0, 0)
	tab.Observe("mm", time.Millisecond, false, false, false, 0, 0)

	got := tab.Profiles()
	if len(got) != 3 {
		t.Fatalf("%d profiles, want 3", len(got))
	}
	if got[0].Shape != "mm" || got[1].Shape != "aa" || got[2].Shape != "zz" {
		t.Fatalf("order = %s, %s, %s", got[0].Shape, got[1].Shape, got[2].Shape)
	}
}

// TestShapesBoundedCapacity: shapes past capacity are counted as overflow,
// not grown without limit; existing shapes keep accumulating.
func TestShapesBoundedCapacity(t *testing.T) {
	tab := NewShapes(2, 4)
	tab.Observe("A", time.Millisecond, false, false, false, 0, 0)
	tab.Observe("B", time.Millisecond, false, false, false, 0, 0)
	tab.Observe("C", time.Millisecond, false, false, false, 0, 0) // table full: dropped
	tab.Observe("A", time.Millisecond, false, false, false, 0, 0) // existing: fine

	if tab.Overflow() != 1 {
		t.Fatalf("overflow = %d, want 1", tab.Overflow())
	}
	if _, ok := tab.Profile("C"); ok {
		t.Fatal("overflowed shape was admitted")
	}
	if p, _ := tab.Profile("A"); p.Queries != 2 {
		t.Fatalf("A queries = %d, want 2", p.Queries)
	}
}

// TestShapesRotateAgesWindows: rotation ages latency out of every shape's
// window while totals are preserved.
func TestShapesRotateAgesWindows(t *testing.T) {
	tab := NewShapes(8, 2)
	tab.Observe("A", time.Millisecond, true, false, false, 0, 0)
	tab.Rotate()
	tab.Rotate()
	p, _ := tab.Profile("A")
	if p.Window.Count != 0 {
		t.Fatalf("window count = %d after full lap, want 0", p.Window.Count)
	}
	if p.Queries != 1 || p.Hits != 1 {
		t.Fatalf("totals aged out: %+v", p)
	}
}
