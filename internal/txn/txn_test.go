package txn

import (
	"testing"
	"testing/quick"
)

func TestBeginAssignsIncreasingIDs(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	if t2.ID() <= t1.ID() {
		t.Fatalf("IDs not increasing: %d then %d", t1.ID(), t2.ID())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := NewManager()
	w := m.Begin()
	before := m.ReadSnapshot()
	if before.Sees(w.ID(), 0) {
		t.Fatal("uncommitted write visible to earlier snapshot")
	}
	// The writer sees its own writes.
	if !w.Snapshot().Sees(w.ID(), 0) {
		t.Fatal("writer cannot see own write")
	}
	w.Commit()
	if before.Sees(w.ID(), 0) {
		t.Fatal("commit leaked into pre-existing snapshot")
	}
	after := m.ReadSnapshot()
	if !after.Sees(w.ID(), 0) {
		t.Fatal("committed write invisible to later snapshot")
	}
}

func TestInvalidationVisibility(t *testing.T) {
	m := NewManager()
	ins := m.Begin()
	ins.Commit()
	mid := m.ReadSnapshot()
	del := m.Begin()
	// Row created by ins, invalidated by del (still open).
	if !mid.Sees(ins.ID(), del.ID()) {
		t.Fatal("open invalidation must not hide the row")
	}
	del.Commit()
	if !mid.Sees(ins.ID(), del.ID()) {
		t.Fatal("snapshot taken before the delete must keep seeing the row")
	}
	if m.ReadSnapshot().Sees(ins.ID(), del.ID()) {
		t.Fatal("row visible after committed invalidation")
	}
}

func TestOutOfOrderCommitWatermark(t *testing.T) {
	m := NewManager()
	a := m.Begin() // id 1
	b := m.Begin() // id 2
	b.Commit()
	// a is still open, so the watermark must not pass it.
	if snap := m.ReadSnapshot(); snap.Sees(b.ID(), 0) {
		t.Fatal("gap in commit order exposed")
	}
	a.Commit()
	if snap := m.ReadSnapshot(); !snap.Sees(a.ID(), 0) || !snap.Sees(b.ID(), 0) {
		t.Fatal("watermark did not catch up after gap closed")
	}
}

func TestAbortRunsUndoAndHides(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	var undone []int
	tx.OnAbort(func() { undone = append(undone, 1) })
	tx.OnAbort(func() { undone = append(undone, 2) })
	tx.Abort()
	if len(undone) != 2 || undone[0] != 2 || undone[1] != 1 {
		t.Fatalf("undo order = %v, want [2 1] (reverse)", undone)
	}
	if m.ReadSnapshot().Sees(Aborted, 0) {
		t.Fatal("aborted sentinel visible")
	}
	// Watermark advances past the aborted transaction.
	next := m.Begin()
	next.Commit()
	if !m.ReadSnapshot().Sees(next.ID(), 0) {
		t.Fatal("abort blocked the watermark")
	}
}

func TestDoubleResolvePanics(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("double commit did not panic")
		}
	}()
	tx.Commit()
}

func TestVisibilityVector(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t1.Commit()
	t2 := m.Begin()
	t2.Commit()
	t3 := m.Begin() // open
	create := []TID{t1.ID(), t2.ID(), t3.ID(), Aborted}
	invalid := []TID{0, t3.ID(), 0, 0}
	bs := VisibilityVector(create, invalid, m.ReadSnapshot())
	// Row 0: committed, live -> visible. Row 1: invalidated by open txn ->
	// still visible. Row 2: created by open txn -> invisible. Row 3:
	// aborted -> invisible.
	want := []bool{true, true, false, false}
	for i, w := range want {
		if bs.Get(i) != w {
			t.Fatalf("row %d visibility = %v, want %v (vec %v)", i, bs.Get(i), w, bs)
		}
	}
}

func TestVisibilityVectorLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	VisibilityVector([]TID{1}, nil, Snapshot{})
}

// Property: a snapshot sees a committed create iff create <= High, for any
// combination of watermark and timestamps (ignoring Self).
func TestQuickSeesMonotone(t *testing.T) {
	f := func(high, create, invalid uint32) bool {
		s := Snapshot{High: TID(high)}
		c, iv := TID(create), TID(invalid)
		if c == 0 {
			c = 1
		}
		vis := s.Sees(c, iv)
		want := c <= s.High && (iv == 0 || iv > s.High)
		return vis == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNestedPinHandOff covers the snapshot hand-off primitive behind the
// shadow verifier: a nested Pin taken while a PinRead is held keeps the
// snapshot pinned after the original read pin releases, and the returned
// release function is idempotent.
func TestNestedPinHandOff(t *testing.T) {
	m := NewManager()
	m.Begin().Commit()

	snap, unpinRead := m.PinRead()
	nested := m.Pin(snap)
	unpinRead()
	m.Begin().Commit() // advance the watermark past the pinned snapshot
	if got := m.OldestPinned(); got != snap.High {
		t.Fatalf("OldestPinned = %d after read unpin, want %d held by nested pin", got, snap.High)
	}
	nested()
	nested() // idempotent
	if got, wm := m.OldestPinned(), m.Watermark(); got != wm {
		t.Fatalf("OldestPinned = %d after nested release, want watermark %d", got, wm)
	}
}

// TestAcquireRelease: an Acquire holds the reclamation horizon at its
// watermark until its one Release, two Acquires at one watermark count
// separately, the pair allocates nothing, and PinRead's release (a wrapped
// Release) stays idempotent.
func TestAcquireRelease(t *testing.T) {
	m := NewManager()
	m.Begin().Commit()
	a := m.Acquire()
	b := m.Acquire()
	m.Begin().Commit()
	m.Release(a)
	if got := m.OldestPinned(); got != b.High {
		t.Fatalf("OldestPinned = %d with one of two pins released, want %d", got, b.High)
	}
	m.Release(b)
	if got, wm := m.OldestPinned(), m.Watermark(); got != wm {
		t.Fatalf("OldestPinned = %d after both releases, want watermark %d", got, wm)
	}
	if n := testing.AllocsPerRun(100, func() { m.Release(m.Acquire()) }); n != 0 {
		t.Fatalf("Acquire+Release allocates %v times, want 0", n)
	}
	_, release := m.PinRead()
	held := m.Acquire() // the same watermark as the PinRead
	release()
	release() // idempotent: must not drop the other pin at that watermark
	m.Begin().Commit()
	if got := m.OldestPinned(); got != held.High {
		t.Fatalf("OldestPinned = %d after a double PinRead release, want %d still held", got, held.High)
	}
	m.Release(held)
	if got, wm := m.OldestPinned(), m.Watermark(); got != wm {
		t.Fatalf("OldestPinned = %d after every release, want watermark %d", got, wm)
	}
}
