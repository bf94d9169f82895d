package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func trace(name string, dur time.Duration) *Span {
	sp := StartSpan(name)
	sp.Child("child").End()
	sp.Dur = dur
	return sp
}

// TestRecorderRingRetention: the ring keeps exactly the last Capacity
// traces, newest first, and Get misses evicted ids.
func TestRecorderRingRetention(t *testing.T) {
	r := NewRecorder(RecorderConfig{Capacity: 3})
	var ids []int64
	for i := 0; i < 5; i++ {
		ids = append(ids, r.Record(trace(fmt.Sprintf("q%d", i), time.Millisecond)))
	}
	if ids[0] != 1 || ids[4] != 5 {
		t.Fatalf("ids = %v, want 1..5", ids)
	}
	list := r.List()
	if len(list) != 3 {
		t.Fatalf("retained %d traces, want 3", len(list))
	}
	for i, want := range []int64{5, 4, 3} {
		if list[i].ID != want {
			t.Fatalf("list[%d].ID = %d, want %d (newest first)", i, list[i].ID, want)
		}
	}
	if list[0].Name != "q4" || list[0].Spans != 2 {
		t.Fatalf("summary = %+v", list[0])
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("evicted trace still retrievable")
	}
	rec, ok := r.Get(4)
	if !ok || rec.Root.Name != "q3" {
		t.Fatalf("Get(4) = %+v, %v", rec, ok)
	}
}

// TestRecorderSlowLog: slow traces survive ring eviction, the slow log is
// bounded, and List dedups traces present in both structures.
func TestRecorderSlowLog(t *testing.T) {
	r := NewRecorder(RecorderConfig{Capacity: 2, SlowThreshold: 100 * time.Millisecond, SlowCapacity: 2})
	slowID := r.Record(trace("slow-1", 150*time.Millisecond)) // slow, will be evicted from ring
	for i := 0; i < 4; i++ {
		r.Record(trace(fmt.Sprintf("fast-%d", i), time.Millisecond))
	}
	rec, ok := r.Get(slowID)
	if !ok || !rec.Slow {
		t.Fatalf("slow trace lost after ring cycled: %+v, %v", rec, ok)
	}
	// While still in the ring, a slow trace must list once, flagged.
	r2 := NewRecorder(RecorderConfig{Capacity: 4, SlowThreshold: time.Millisecond, SlowCapacity: 4})
	r2.Record(trace("s", 2*time.Millisecond))
	list := r2.List()
	if len(list) != 1 || !list[0].Slow {
		t.Fatalf("slow trace in ring listed as %+v", list)
	}
	// The slow log itself is bounded: a third slow trace evicts the oldest.
	r3 := NewRecorder(RecorderConfig{Capacity: 1, SlowThreshold: time.Millisecond, SlowCapacity: 2})
	a := r3.Record(trace("a", 5*time.Millisecond))
	b := r3.Record(trace("b", 5*time.Millisecond))
	c := r3.Record(trace("c", 5*time.Millisecond))
	if _, ok := r3.Get(a); ok {
		t.Fatal("oldest slow trace not evicted at SlowCapacity")
	}
	for _, id := range []int64{b, c} {
		if _, ok := r3.Get(id); !ok {
			t.Fatalf("slow trace %d missing", id)
		}
	}
	// List is globally newest-first across ring and slow log.
	list = r3.List()
	if len(list) != 2 || list[0].ID != c || list[1].ID != b {
		t.Fatalf("list = %+v, want ids [%d %d]", list, c, b)
	}
}

// TestRecorderFastTracesBelowThresholdNotSlow: sub-threshold traces are
// never flagged, and with SlowThreshold zero nothing enters the slow log.
func TestRecorderFastTracesBelowThresholdNotSlow(t *testing.T) {
	r := NewRecorder(RecorderConfig{Capacity: 2, SlowThreshold: time.Second})
	r.Record(trace("fast", time.Millisecond))
	if list := r.List(); list[0].Slow {
		t.Fatal("fast trace flagged slow")
	}
	r2 := NewRecorder(RecorderConfig{Capacity: 1})
	r2.Record(trace("x", time.Hour))
	if r2.slow.Len() != 0 {
		t.Fatal("slow log populated with threshold disabled")
	}
}

// TestDisabledRecorderAllocs is the acceptance-criteria guard: the
// flight-recorder hook on the query path — an Enabled check plus a Record
// call — must allocate nothing when recording is disabled (nil recorder).
func TestDisabledRecorderAllocs(t *testing.T) {
	var r *Recorder
	sp := StartSpan("warm") // pre-built; disabled paths never build spans
	allocs := testing.AllocsPerRun(1000, func() {
		if r.Enabled() {
			r.Record(sp)
		}
		r.Record(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocates %.1f per query, want 0", allocs)
	}
	if r.List() != nil || r.Len() != 0 {
		t.Fatal("nil recorder must list nothing")
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("nil recorder returned a trace")
	}
}

// TestRecorderConcurrency hammers Record/List/Get from many goroutines;
// under -race it audits the recorder's locking.
func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder(RecorderConfig{Capacity: 8, SlowThreshold: time.Millisecond, SlowCapacity: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dur := time.Microsecond
				if i%10 == 0 {
					dur = 2 * time.Millisecond
				}
				id := r.Record(trace(fmt.Sprintf("g%d-%d", g, i), dur))
				if id == 0 {
					t.Error("enabled recorder returned id 0")
					return
				}
				if i%20 == 0 {
					for _, s := range r.List() {
						if _, ok := r.Get(s.ID); !ok {
							// Concurrent Records may have evicted s between
							// List and Get; only a trace that is still
							// listed must be fetchable.
							for _, cur := range r.List() {
								if cur.ID == s.ID {
									t.Errorf("listed trace %d not fetchable", s.ID)
									return
								}
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.List(); len(got) == 0 {
		t.Fatal("nothing retained after concurrent recording")
	}
}
