package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestDisabledLedgerAllocs is the acceptance-criteria guard: the ledger
// hook on the query path — an Enabled check plus a Record call — must
// allocate nothing when the ledger is disabled (nil), and recording a
// pre-built Decision into an enabled ledger must also be allocation-free
// (the ring is preallocated; a Decision is a flat value).
func TestDisabledLedgerAllocs(t *testing.T) {
	var off *Ledger
	d := Decision{Kind: DecisionHit, Key: "q:warm", Strategy: "CacheHit", Hits: 3}
	allocs := testing.AllocsPerRun(1000, func() {
		if off.Enabled() {
			off.Record(d)
		}
		off.Record(d)
	})
	if allocs != 0 {
		t.Fatalf("disabled ledger allocates %.1f per decision, want 0", allocs)
	}
	if off.Len() != 0 || off.Seq() != 0 || off.Snapshot() != nil {
		t.Fatal("nil ledger must retain nothing")
	}

	on := NewLedger(64)
	allocs = testing.AllocsPerRun(1000, func() {
		if on.Enabled() {
			on.Record(d)
		}
	})
	if allocs != 0 {
		t.Fatalf("enabled ledger allocates %.1f per decision, want 0", allocs)
	}
}

// TestLedgerRingRetention: the ring keeps exactly the last capacity
// decisions oldest-first, Seq keeps counting past the wrap, and sequence
// numbers are contiguous.
func TestLedgerRingRetention(t *testing.T) {
	l := NewLedger(3)
	for i := 0; i < 5; i++ {
		l.Record(Decision{Kind: DecisionMiss, Key: fmt.Sprintf("q%d", i)})
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if l.Seq() != 5 {
		t.Fatalf("Seq = %d, want 5", l.Seq())
	}
	snap := l.Snapshot()
	for i, wantKey := range []string{"q2", "q3", "q4"} {
		if snap[i].Key != wantKey {
			t.Fatalf("snap[%d].Key = %q, want %q (oldest first)", i, snap[i].Key, wantKey)
		}
		if snap[i].Seq != int64(i+3) {
			t.Fatalf("snap[%d].Seq = %d, want %d", i, snap[i].Seq, i+3)
		}
		if snap[i].UnixNS == 0 {
			t.Fatalf("snap[%d] missing timestamp", i)
		}
	}
	// Before the ring wraps, Snapshot returns only what was recorded.
	small := NewLedger(8)
	small.Record(Decision{Kind: DecisionAdmit, Key: "a"})
	if snap := small.Snapshot(); len(snap) != 1 || snap[0].Key != "a" || snap[0].Seq != 1 {
		t.Fatalf("partial snapshot = %+v", snap)
	}
	if len(NewLedger(0).ring.buf) != DefaultLedgerCapacity {
		t.Fatal("capacity 0 must fall back to DefaultLedgerCapacity")
	}
}

// TestDecisionKindText: every kind round-trips through its text encoding,
// and the JSON form uses the names (which double as event-log vocabulary).
func TestDecisionKindText(t *testing.T) {
	for k := DecisionKind(0); k < numDecisionKinds; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%d): %v", k, err)
		}
		var back DecisionKind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", b, err)
		}
		if back != k {
			t.Fatalf("round-trip %q: got %d, want %d", b, back, k)
		}
	}
	var k DecisionKind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("unknown kind name must not decode")
	}
	out, err := json.Marshal(Decision{Kind: DecisionEvict, Key: "q", Reason: "capacity"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"kind":"evict"`) {
		t.Fatalf("JSON kind not named: %s", out)
	}
}

// TestCanonLedgerDeterministic: the canonical rendering carries the
// replayable fields and excludes every wall-clock measurement, so two
// recordings of the same workload that differ only in timing render
// byte-identically.
func TestCanonLedgerDeterministic(t *testing.T) {
	base := Decision{
		Kind: DecisionEvict, Key: "q:orders", Shape: "s:orders", Reason: "capacity", Strategy: "",
		Hits: 7, SizeBytes: 4096, MainRows: 1200, DeltaRows: 34, Rows: 0,
		CacheBytes: 8192, CacheEntries: 2,
	}
	timed := base
	timed.UnixNS = 999
	timed.ComputeNS = 5_000_000
	timed.ServeNS = 1_000
	timed.AgeNS = 77
	timed.Profit = 123.45
	timed.RegretX = 2.5

	l1, l2 := NewLedger(4), NewLedger(4)
	l1.Record(base)
	l2.Record(timed)
	c1, c2 := CanonLedger(l1.Snapshot()), CanonLedger(l2.Snapshot())
	if c1 != c2 {
		t.Fatalf("canon differs on wall-clock-only changes:\n%s\nvs\n%s", c1, c2)
	}
	want := "seq=1 kind=evict key=q:orders shape=s:orders reason=capacity strategy= hits=7 size=4096 main_rows=1200 delta_rows=34 rows=0 cache_bytes=8192 cache_entries=2\n"
	if c1 != want {
		t.Fatalf("canon = %q, want %q", c1, want)
	}
	// Replayable fields must show up in the canon: a different key differs.
	l3 := NewLedger(4)
	other := base
	other.Key = "q:items"
	l3.Record(other)
	if CanonLedger(l3.Snapshot()) == c1 {
		t.Fatal("canon ignores the decision key")
	}
}

// TestLedgerConcurrency hammers Record/Snapshot from many goroutines; under
// -race it audits the ledger's locking. Sequence numbers must stay unique.
func TestLedgerConcurrency(t *testing.T) {
	l := NewLedger(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Record(Decision{Kind: DecisionHit, Key: "k", Hits: int64(i)})
				if i%50 == 0 {
					snap := l.Snapshot()
					for j := 1; j < len(snap); j++ {
						if snap[j].Seq != snap[j-1].Seq+1 {
							t.Errorf("non-contiguous seq %d after %d", snap[j].Seq, snap[j-1].Seq)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Seq() != 1600 {
		t.Fatalf("Seq = %d, want 1600", l.Seq())
	}
	if l.Len() != 128 {
		t.Fatalf("Len = %d, want 128", l.Len())
	}
}
