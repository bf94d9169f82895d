// Package txn implements the transaction layer of the main-delta engine:
// monotonically increasing transaction identifiers, commit watermarks,
// snapshots, and the consistent view manager that renders per-store
// visibility bit vectors for a transaction token (paper Sec. 2.2).
//
// The transaction ID doubles as the temporal attribute the object-aware
// matching dependencies are built on (paper Sec. 5): a row's tid column is
// set to the ID of the inserting transaction.
package txn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"aggcache/internal/vec"
)

// TID is a transaction identifier. IDs are handed out in strictly increasing
// order; 0 means "none" (a live row has invalidTID 0).
type TID uint64

// Aborted is the sentinel createTID assigned to rows written by a
// transaction that later aborted; no snapshot ever sees them.
const Aborted TID = ^TID(0)

// Snapshot is a transaction token: it sees every row created by a committed
// transaction with ID <= High, plus the writes of Self (the owning
// transaction), minus rows invalidated under the same rule.
type Snapshot struct {
	High TID
	Self TID
}

// Sees reports whether a row with the given MVCC timestamps is visible.
func (s Snapshot) Sees(create, invalid TID) bool {
	if !s.seesTID(create) {
		return false
	}
	return invalid == 0 || !s.seesTID(invalid)
}

func (s Snapshot) seesTID(t TID) bool {
	if t == Aborted {
		return false
	}
	return t == s.Self && t != 0 || t <= s.High
}

// Manager issues transactions and tracks the commit watermark: the highest
// TID such that every transaction with a smaller-or-equal ID has resolved
// (committed or aborted). Snapshots read the watermark, so out-of-order
// commits never expose gaps.
type Manager struct {
	mu        sync.Mutex
	next      TID
	watermark TID
	resolved  map[TID]bool // resolved TIDs above the watermark
	// pins counts active read snapshots per watermark value. The online
	// delta merge consults the oldest pin as its reclamation horizon: row
	// versions still visible to a pinned snapshot are carried into the new
	// main instead of dropped, so long-running readers straddling a merge
	// swap keep a consistent view.
	pins map[TID]int
}

// NewManager returns a transaction manager with no history.
func NewManager() *Manager {
	return &Manager{resolved: make(map[TID]bool), pins: make(map[TID]int)}
}

// Txn is an open transaction.
type Txn struct {
	id      TID
	snap    Snapshot
	mgr     *Manager
	done    bool
	onAbort []func()
}

// Begin opens a transaction with a fresh ID and a snapshot of the current
// watermark.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.next++
	return &Txn{id: m.next, snap: Snapshot{High: m.watermark, Self: m.next}, mgr: m}
}

// ReadSnapshot returns a read-only transaction token at the current
// watermark — what the consistent view manager hands an incoming query.
func (m *Manager) ReadSnapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot{High: m.watermark}
}

// Acquire returns a read snapshot at the current watermark and pins it
// until Release(snapshot) is called: while a snapshot is pinned, delta
// merges will not reclaim row versions it can still see (see
// OldestPinned), so a reader may keep using the snapshot across an online
// merge swap. Each Acquire must be matched by exactly one Release. The pair
// allocates nothing; it is the per-query pin of the serving path.
func (m *Manager) Acquire() Snapshot {
	m.mu.Lock()
	high := m.watermark
	m.pins[high]++
	m.mu.Unlock()
	return Snapshot{High: high}
}

// Release drops one pin at s.High, taken by Acquire (or Pin). It may run on
// any goroutine.
func (m *Manager) Release(s Snapshot) {
	m.mu.Lock()
	if m.pins[s.High]--; m.pins[s.High] <= 0 {
		delete(m.pins, s.High)
	}
	m.mu.Unlock()
}

// PinRead is Acquire with its Release wrapped in a function: the release
// function is idempotent and safe to call from any goroutine, at the price
// of a closure per call.
func (m *Manager) PinRead() (Snapshot, func()) {
	s := m.Acquire()
	var once sync.Once
	return s, func() { once.Do(func() { m.Release(s) }) }
}

// Pin registers an additional pin at s.High and returns its release
// function (idempotent, any-goroutine safe, like PinRead's). It is the
// snapshot hand-off primitive: a holder of a pinned snapshot may Pin it
// again and pass the snapshot plus the new release to another goroutine —
// the shadow verifier does this to keep re-executing a sampled query's
// exact snapshot after the serving goroutine releases its own pin. Callers
// must still hold a pin at s.High when calling; pinning an unpinned
// historical snapshot would not resurrect row versions a merge already
// reclaimed.
func (m *Manager) Pin(s Snapshot) func() {
	m.mu.Lock()
	m.pins[s.High]++
	m.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { m.Release(s) }) }
}

// OldestPinned returns the reclamation horizon: the lowest watermark any
// pinned read snapshot was taken at, or the current watermark when nothing
// is pinned. A row version invalidated by a transaction with ID greater
// than the horizon may still be visible to an active reader and must
// survive reorganizations (the TID-watermark handling of the online merge).
func (m *Manager) OldestPinned() TID {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest := m.watermark
	for high := range m.pins {
		if high < oldest {
			oldest = high
		}
	}
	return oldest
}

// Watermark returns the current commit watermark.
func (m *Manager) Watermark() TID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.watermark
}

func (m *Manager) resolve(id TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resolved[id] = true
	for m.resolved[m.watermark+1] {
		delete(m.resolved, m.watermark+1)
		m.watermark++
	}
}

// ID returns the transaction's identifier; it is the value inserted into
// tid columns by the matching-dependency enforcement.
func (t *Txn) ID() TID { return t.id }

// Snapshot returns the transaction's token, including own-writes
// visibility.
func (t *Txn) Snapshot() Snapshot { return t.snap }

// OnAbort registers an undo action to run if the transaction aborts. The
// table layer uses this to tombstone rows written by the transaction.
func (t *Txn) OnAbort(fn func()) { t.onAbort = append(t.onAbort, fn) }

// Commit makes the transaction's writes visible to snapshots taken after
// the watermark passes its ID. Committing twice panics.
func (t *Txn) Commit() {
	if t.done {
		panic(fmt.Sprintf("txn: transaction %d already resolved", t.id))
	}
	t.done = true
	t.onAbort = nil
	t.mgr.resolve(t.id)
}

// Abort runs the registered undo actions in reverse order and resolves the
// transaction; its writes are never visible.
func (t *Txn) Abort() {
	if t.done {
		panic(fmt.Sprintf("txn: transaction %d already resolved", t.id))
	}
	t.done = true
	for i := len(t.onAbort) - 1; i >= 0; i-- {
		t.onAbort[i]()
	}
	t.onAbort = nil
	t.mgr.resolve(t.id)
}

// StoreTID atomically writes a TID slot. Invalidation timestamps are
// written through this helper because the online delta merge reads the
// MVCC arrays of the frozen stores without holding the database lock;
// pairing atomic writes with the atomic reads in LoadTID/VisibilityInto
// keeps those unsynchronized readers race-free.
func StoreTID(p *TID, v TID) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(p)), uint64(v))
}

// LoadTID atomically reads a TID slot; the counterpart of StoreTID.
func LoadTID(p *TID) TID {
	return TID(atomic.LoadUint64((*uint64)(unsafe.Pointer(p))))
}

// VisibilityVector renders the consistent view manager's bit vector for one
// store: bit i is set iff row i is visible to the snapshot. This is the
// structure the aggregate cache captures at entry-creation time and compares
// against for main compensation.
func VisibilityVector(create, invalid []TID, snap Snapshot) *vec.BitSet {
	bs := &vec.BitSet{}
	VisibilityInto(create, invalid, snap, bs)
	return bs
}

// VisibilityInto renders the visibility vector into a caller-owned bitset,
// resizing it to len(create) bits. Visibility is evaluated row-at-a-time but
// written word-at-a-time — 64 rows accumulate into one register before a
// single word store — so scan kernels can reuse a scratch bitset across
// stores without reallocating.
//
// Invalidation timestamps are read atomically (LoadTID): during an online
// merge the cache-maintenance fold scans main stores without the database
// lock while concurrent writers invalidate rows through StoreTID. Atomic
// loads compile to plain moves on mainstream architectures, so the
// vectorized kernel keeps its throughput.
func VisibilityInto(create, invalid []TID, snap Snapshot, bs *vec.BitSet) {
	if len(create) != len(invalid) {
		panic("txn: create/invalid length mismatch")
	}
	n := len(create)
	bs.Reset(n)
	var w uint64
	wi := 0
	for i := 0; i < n; i++ {
		if snap.Sees(create[i], LoadTID(&invalid[i])) {
			w |= 1 << uint(i&63)
		}
		if i&63 == 63 {
			bs.SetWord(wi, w)
			wi++
			w = 0
		}
	}
	if n&63 != 0 {
		bs.SetWord(wi, w)
	}
}
