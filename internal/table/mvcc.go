package table

import (
	"cmp"
	"math/bits"
	"slices"
	"sync/atomic"

	"aggcache/internal/txn"
	"aggcache/internal/vec"
)

// A main store carries no per-row timestamps. Its visibility is the
// paper's (Sec. 2, Fig. 2): the store as of its merge, minus whatever has
// been invalidated since. mainMVCC holds exactly that:
//
//   - a settled TID: every row not listed as an exception was created at or
//     below it, and every snapshot allowed to read the store (an admissible
//     one) has High >= settled;
//   - a sparse exception list of (row, createTID), sorted by row, for the
//     rows a reader can still tell apart from the settled TID: rows a merge
//     carried in above its reclamation horizon, rows of a bulk load above
//     the oldest pinned snapshot, bulk rows of an aborted transaction;
//   - an append-only invalidation log of (row, tid). An aborted
//     invalidation's entry dies in place (tid 0), so each row has at most
//     one live entry; the next merge compacts the log to the entries its
//     pinned readers still need;
//   - a bitset of the rows that are not live — a live log entry, or an
//     aborted creating transaction — for O(1) liveness (LookupPK's live
//     check, Update and Delete's double-invalidation refusal).
//
// Rendering a snapshot's visibility costs O(rows/64 + log + exceptions).
// For every snapshot the render agrees with Snapshot.Sees(CreateTID(row),
// InvalidTID(row)); for admissible ones it also agrees with the rows' true
// creating transactions.
//
// Appends to the log, aborts and bitset updates happen under the database
// writer lock. The online-merge builder reads a frozen main's log without
// any lock while writers invalidate its rows, so log chunks never move once
// allocated, the log length is published atomically after the entry is
// written, and entry TIDs and bitset words are read and written atomically.
type mainMVCC struct {
	settled txn.TID
	exc     []rowTID
	log     invLog
	dead    []atomic.Uint64
}

// rowTID pairs a row with a transaction ID: an exception's creating
// transaction, or a settled invalidation a new main is built with.
type rowTID struct {
	row int32
	tid txn.TID
}

func cmpRowTID(e rowTID, row int32) int { return cmp.Compare(e.row, row) }

// logEntry is one logged invalidation; tid (a txn.TID) is 0 once the
// invalidating transaction aborted.
type logEntry struct {
	row int32
	tid atomic.Uint64
}

// The log is a sequence of chunks, chunk k holding logChunk0<<k entries, so
// that entries never move and the directory needs no growth.
const (
	logChunk0 = 16
	logChunks = 27 // logChunk0 * (2^27 - 1) entries exceed any row count
)

// invLog is a main store's append-only invalidation log. top holds each
// chunk's highest entry TID, so a scan for the entries above a watermark
// skips the chunks below it.
type invLog struct {
	n      atomic.Int64
	chunks [logChunks][]logEntry
	top    [logChunks]atomic.Uint64
}

// logSlot locates entry i: its chunk and the offset inside it.
func logSlot(i int) (k, off int) {
	k = bits.Len(uint(i/logChunk0+1)) - 1
	return k, i - logChunk0*(1<<k-1)
}

// len reports the published entry count.
func (l *invLog) len() int { return int(l.n.Load()) }

func (l *invLog) entry(i int) *logEntry {
	k, off := logSlot(i)
	return &l.chunks[k][off]
}

// append publishes one entry and returns its position. Callers serialize
// appends.
func (l *invLog) append(row int, tid txn.TID) int {
	i := l.len()
	k, off := logSlot(i)
	if l.chunks[k] == nil {
		l.chunks[k] = make([]logEntry, logChunk0<<k)
	}
	e := &l.chunks[k][off]
	e.row = int32(row)
	e.tid.Store(uint64(tid))
	if uint64(tid) > l.top[k].Load() {
		l.top[k].Store(uint64(tid))
	}
	l.n.Store(int64(i + 1))
	return i
}

// each calls fn with the log's first n entries, one chunk at a time, and
// the chunk's index.
func (l *invLog) each(n int, fn func(k int, es []logEntry)) {
	for k, lo := 0, 0; lo < n; k++ {
		c := l.chunks[k]
		fn(k, c[:min(len(c), n-lo)])
		lo += len(c)
	}
}

func (l *invLog) memBytes() uint64 {
	var m uint64
	for _, c := range l.chunks {
		m += uint64(cap(c)) * 16
	}
	return m
}

// mainVersions collects a new main store's MVCC while a merge, an aging or
// a bulk load appends its rows in order.
type mainVersions struct {
	settled txn.TID
	rows    int
	exc     []rowTID
	inv     []rowTID
}

// add records the next row's creating transaction and, if it was
// invalidated, its invalidating one. A row created above the settled TID
// (or by an aborted transaction) becomes an exception.
func (v *mainVersions) add(create, inv txn.TID) {
	row := int32(v.rows)
	v.rows++
	if create > v.settled {
		v.exc = append(v.exc, rowTID{row, create})
	}
	if inv != 0 {
		v.inv = append(v.inv, rowTID{row, inv})
	}
}

// newMainMVCC builds a main's visibility metadata from its collected
// versions.
func newMainMVCC(v *mainVersions) *mainMVCC {
	m := &mainMVCC{settled: v.settled, exc: v.exc, dead: make([]atomic.Uint64, (v.rows+63)/64)}
	for _, e := range v.exc {
		if e.tid == txn.Aborted {
			m.setDead(int(e.row), true)
		}
	}
	for _, e := range v.inv {
		m.invalidate(int(e.row), e.tid)
	}
	return m
}

// createTID returns the row's exception TID, else the settled TID.
func (m *mainMVCC) createTID(row int) txn.TID {
	if i, ok := slices.BinarySearchFunc(m.exc, int32(row), cmpRowTID); ok {
		return m.exc[i].tid
	}
	return m.settled
}

// isDead reports whether the row is not live: it has a live log entry, or
// an aborted transaction created it.
func (m *mainMVCC) isDead(row int) bool {
	return m.dead[row>>6].Load()&(1<<(row&63)) != 0
}

// setDead sets or clears the row's bit; writers are serialized.
func (m *mainMVCC) setDead(row int, on bool) {
	w := &m.dead[row>>6]
	bit := uint64(1) << (row & 63)
	if on {
		w.Store(w.Load() | bit)
	} else {
		w.Store(w.Load() &^ bit)
	}
}

// invalidTID returns the TID of the row's live log entry, 0 if none.
func (m *mainMVCC) invalidTID(row int) txn.TID {
	if !m.isDead(row) {
		return 0
	}
	for i := m.log.len() - 1; i >= 0; i-- {
		e := m.log.entry(i)
		if int(e.row) != row {
			continue
		}
		if tid := e.tid.Load(); tid != 0 {
			return txn.TID(tid)
		}
	}
	return 0
}

// invalidate logs the row's invalidation by tid and returns the entry's
// position; the caller has checked that the row is live.
func (m *mainMVCC) invalidate(row int, tid txn.TID) int {
	i := m.log.append(row, tid)
	m.setDead(row, true)
	return i
}

// undo kills log entry i, the invalidation of an aborted transaction.
func (m *mainMVCC) undo(i int) {
	e := m.log.entry(i)
	e.tid.Store(0)
	m.setDead(int(e.row), false)
}

// render writes the store's visibility for snap into bs: all rows when the
// snapshot sees the settled TID, each exception as its creating transaction
// decides, minus the logged invalidations the snapshot sees.
func (m *mainMVCC) render(rows int, snap txn.Snapshot, bs *vec.BitSet) {
	bs.Reset(rows)
	if snap.SeesTID(m.settled) {
		bs.SetAll()
	}
	for _, e := range m.exc {
		if snap.SeesTID(e.tid) {
			bs.Set(int(e.row))
		} else {
			bs.Clear(int(e.row))
		}
	}
	m.log.each(m.log.len(), func(_ int, es []logEntry) {
		for i := range es {
			if tid := txn.TID(es[i].tid.Load()); tid != 0 && snap.SeesTID(tid) {
				bs.Clear(int(es[i].row))
			}
		}
	})
}

// vanished returns the rows snapshot old sees and cur does not, and their
// count; nil and 0 when there are none. old must see no own writes and be
// no newer than cur, so cur sees every creation old sees: a row vanished
// exactly when old sees it created and its live log entry (a row has at
// most one) is one cur sees and old does not. One pass over the log,
// skipping the chunks whose TIDs old all sees: an empty log, or one with
// nothing logged above old, costs O(1) per chunk and allocates nothing.
func (m *mainMVCC) vanished(rows int, old, cur txn.Snapshot) (*vec.BitSet, int) {
	var bs *vec.BitSet
	n := 0
	m.log.each(m.log.len(), func(k int, es []logEntry) {
		if txn.TID(m.log.top[k].Load()) <= old.High {
			return
		}
		for i := range es {
			tid := txn.TID(es[i].tid.Load())
			if tid == 0 || old.SeesTID(tid) || !cur.SeesTID(tid) {
				continue
			}
			row := int(es[i].row)
			if !old.SeesTID(m.createTID(row)) {
				continue
			}
			if bs == nil {
				bs = vec.NewBitSet(rows)
			}
			bs.Set(row)
			n++
		}
	})
	return bs, n
}

// frozenTIDs returns a reader of a frozen main's per-row timestamps as of a
// merge snapshot: the creating transaction and the invalidation logged
// before position logLen (the log's length at the snapshot) that the
// snapshot sees. The reader must be called with ascending rows. It reads
// only what writers no longer change, so the off-line merge build may call
// it without any lock.
func (m *mainMVCC) frozenTIDs(logLen int, high txn.TID) func(row int) (create, inv txn.TID) {
	var invs []rowTID
	m.log.each(logLen, func(_ int, es []logEntry) {
		for i := range es {
			if tid := txn.TID(es[i].tid.Load()); tid != 0 && tid <= high {
				invs = append(invs, rowTID{es[i].row, tid})
			}
		}
	})
	slices.SortFunc(invs, func(a, b rowTID) int { return cmp.Compare(a.row, b.row) })
	e, i := 0, 0
	return func(row int) (create, inv txn.TID) {
		return cursorTID(m.exc, &e, row, m.settled), cursorTID(invs, &i, row, 0)
	}
}

// cursorTID returns the TID list (sorted by row) pairs with row, or def if
// none; *i carries the position across calls with ascending rows.
func cursorTID(list []rowTID, i *int, row int, def txn.TID) txn.TID {
	for *i < len(list) && int(list[*i].row) < row {
		*i++
	}
	if *i < len(list) && int(list[*i].row) == row {
		return list[*i].tid
	}
	return def
}

// replay copies the invalidations logged from position from onwards — the
// ones that hit a frozen main during an online merge or aging — onto the
// stores that replaced it; dest maps an old row to its new store and row,
// or to a nil store for a dropped one. Aborted entries are skipped.
func (m *mainMVCC) replay(from int, dest func(row int) (*Store, int)) {
	for i, n := from, m.log.len(); i < n; i++ {
		e := m.log.entry(i)
		tid := txn.TID(e.tid.Load())
		if tid == 0 {
			continue
		}
		if st, nr := dest(int(e.row)); st != nil {
			st.replayInvalidation(nr, tid)
		}
	}
}

func (m *mainMVCC) memBytes() uint64 {
	return m.log.memBytes() + uint64(len(m.dead))*8 + uint64(len(m.exc))*16
}
