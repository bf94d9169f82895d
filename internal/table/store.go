package table

import (
	"sync/atomic"

	"aggcache/internal/column"
	"aggcache/internal/txn"
	"aggcache/internal/vec"
)

// Store is one physical row container: either the frozen main store of a
// partition or its append-only delta store. A delta store carries each
// row's MVCC timestamps (creating and invalidating transaction). A main
// store carries none: it holds a settled TID, a sparse list of exception
// rows, an invalidation log and a bitset of rows that are not live (mainMVCC,
// mvcc.go), and renders a snapshot's visibility from them in
// O(rows/64 + log + exceptions).
type Store struct {
	cols []column.Reader
	apps []column.Appender // non-nil only for delta stores
	// create and invalid are a delta store's per-row timestamps.
	create  []txn.TID
	invalid []txn.TID
	// rows and mv describe a main store; mv is nil on a delta.
	rows int
	mv   *mainMVCC
	// invalidations counts invalidation events on this store; the
	// recycler's guards compare it against the value captured with a
	// cached intermediate. Accessed atomically: the online merge bumps it
	// during the swap replay while unlocked observers may poll it.
	invalidations uint64
	// The store's own primary-key index (see lookupPK); both are nil when
	// the table has no primary key. keyRows, on a main store, maps each
	// value ID of the key column to the row of the key's live version, or
	// of its last version when none is live; it stays nil when every row
	// holds its own ID, the sorted duplicate-free key of a bulk load or an
	// insertion-order merge. keys, on a delta store, maps each key to the
	// store's newest row holding it.
	keyRows []int32
	keys    map[int64]int32
}

func newDeltaStore(s *Schema) *Store {
	st := &Store{apps: make([]column.Appender, len(s.Cols)), cols: make([]column.Reader, len(s.Cols))}
	for i, c := range s.Cols {
		a := column.NewDelta(c.Kind)
		st.apps[i] = a
		st.cols[i] = a
	}
	if s.pkCol() >= 0 {
		st.keys = make(map[int64]int32)
	}
	return st
}

// newMainBuilders returns one main-column builder per schema column, each
// sized for rows values.
func newMainBuilders(s *Schema, rows int) []column.MainBuilder {
	builders := make([]column.MainBuilder, len(s.Cols))
	for i, c := range s.Cols {
		builders[i] = column.NewMainBuilder(c.Kind)
		builders[i].Grow(rows)
	}
	return builders
}

// newMainStore encodes the builders' columns into a main store with the
// collected row versions and indexes its primary key.
func newMainStore(s *Schema, builders []column.MainBuilder, v *mainVersions) *Store {
	st := &Store{cols: make([]column.Reader, len(builders)), rows: v.rows, mv: newMainMVCC(v)}
	for i, b := range builders {
		st.cols[i] = b.Build()
	}
	pkc := s.pkCol()
	if pkc < 0 {
		return st
	}
	c := st.cols[pkc]
	identity := c.DictLen() == c.Len()
	for row := 0; identity && row < c.Len(); row++ {
		identity = c.ID(row) == uint32(row)
	}
	if identity {
		return st
	}
	// A merge keeps insertion order, so a key's last row is its newest
	// version; an aging build concatenates two mains, so the second pass
	// lets the (at most one) live version win.
	st.keyRows = make([]int32, c.DictLen())
	for row := 0; row < c.Len(); row++ {
		st.keyRows[c.ID(row)] = int32(row)
	}
	for row := 0; row < c.Len(); row++ {
		if st.live(row) {
			st.keyRows[c.ID(row)] = int32(row)
		}
	}
	return st
}

func emptyMainStore(s *Schema) *Store {
	return newMainStore(s, newMainBuilders(s, 0), &mainVersions{})
}

// live reports whether a row version is live by its own timestamps: not
// aborted and not invalidated, committed or in flight. A table holds at
// most one live version per primary key.
func (st *Store) live(row int) bool {
	if st.mv != nil {
		return !st.mv.isDead(row)
	}
	return st.create[row] != txn.Aborted && txn.LoadTID(&st.invalid[row]) == 0
}

// invalidateRow stamps the row's invalidating transaction and returns the
// action that takes it back when the transaction aborts. Writes are atomic
// because an online merge builder may be reading the frozen store without
// the database lock.
func (st *Store) invalidateRow(row int, id txn.TID) (undo func()) {
	if st.mv != nil {
		i := st.mv.invalidate(row, id)
		undo = func() { st.mv.undo(i) }
	} else {
		txn.StoreTID(&st.invalid[row], id)
		undo = func() { txn.StoreTID(&st.invalid[row], 0) }
	}
	atomic.AddUint64(&st.invalidations, 1)
	return undo
}

// replayInvalidation logs a settled invalidation onto a main a swap just
// installed and ticks its invalidation counter.
func (st *Store) replayInvalidation(row int, id txn.TID) {
	st.mv.invalidate(row, id)
	atomic.AddUint64(&st.invalidations, 1)
}

// lookupPK returns the store's row holding the live version of key, if
// any. A main answers through the key column's sorted dictionary, a delta
// through its keys map; a version deleted or updated away, committed or in
// flight, stops answering by its timestamps alone.
func (st *Store) lookupPK(pkc int, key int64) (int, bool) {
	var row int
	if st.mv != nil {
		id, ok := st.cols[pkc].(column.Lookuper).Lookup(column.IntV(key))
		if !ok {
			return 0, false
		}
		row = int(id)
		if st.keyRows != nil {
			row = int(st.keyRows[id])
		}
	} else {
		r, ok := st.keys[key]
		if !ok {
			return 0, false
		}
		row = int(r)
	}
	return row, st.live(row)
}

// carryKey records row as key's row in a delta's index unless the index
// already answers key with a live version; an online rebuild's abort uses it
// to bring delta2 keys along.
func (st *Store) carryKey(key int64, row int) {
	if old, ok := st.keys[key]; ok && st.live(int(old)) {
		return
	}
	st.keys[key] = int32(row)
}

// IsMain reports whether this is a read-optimized main store.
func (st *Store) IsMain() bool { return st.mv != nil }

// Rows reports the physical row count (including invalidated rows).
func (st *Store) Rows() int {
	if st.mv != nil {
		return st.rows
	}
	return len(st.create)
}

// Col returns the i-th column.
func (st *Store) Col(i int) column.Reader { return st.cols[i] }

// CreateTID returns the creating transaction of a row. On a main store it
// is the row's exception TID, else the store's settled TID: exact for every
// snapshot admissible to the store.
func (st *Store) CreateTID(row int) txn.TID {
	if st.mv != nil {
		return st.mv.createTID(row)
	}
	return st.create[row]
}

// InvalidTID returns the invalidating transaction of a row, 0 if live. On
// a main store it searches the invalidation log, so it costs O(log) for an
// invalidated row.
func (st *Store) InvalidTID(row int) txn.TID {
	if st.mv != nil {
		return st.mv.invalidTID(row)
	}
	return txn.LoadTID(&st.invalid[row])
}

// Visibility renders the consistent-view bit vector of the store for a
// snapshot.
func (st *Store) Visibility(snap txn.Snapshot) *vec.BitSet {
	bs := &vec.BitSet{}
	st.VisibilityInto(snap, bs)
	return bs
}

// VisibilityInto renders the consistent-view bit vector into a caller-owned
// scratch bitset, resized to the store's row count — the allocation-free
// variant the vectorized scan kernels use. A delta renders row by row from
// its timestamps, a main from its invalidation log and exceptions.
func (st *Store) VisibilityInto(snap txn.Snapshot, bs *vec.BitSet) {
	if st.mv != nil {
		st.mv.render(st.rows, snap, bs)
		return
	}
	txn.VisibilityInto(st.create, st.invalid, snap, bs)
}

// VanishedSince returns the rows of a main store that snapshot old sees
// and cur does not, and their count; nil and 0 when none vanished. old must
// see no own writes (Self == 0) and be no newer than cur (old.High <=
// cur.High). It reads the invalidation log alone — equal to
// Visibility(old).AndNot(Visibility(cur)) without rendering either — and
// allocates only when a row vanished. Main stores only.
func (st *Store) VanishedSince(old, cur txn.Snapshot) (*vec.BitSet, int) {
	return st.mv.vanished(st.rows, old, cur)
}

// LiveRows counts rows visible to the snapshot.
func (st *Store) LiveRows(snap txn.Snapshot) int {
	if st.mv != nil {
		return st.Visibility(snap).Count()
	}
	n := 0
	for i := range st.create {
		if snap.Sees(st.create[i], txn.LoadTID(&st.invalid[i])) {
			n++
		}
	}
	return n
}

// appendRow adds a row; delta stores only.
func (st *Store) appendRow(vals []column.Value, tid txn.TID) int {
	if st.mv != nil {
		panic("table: append to main store")
	}
	for i, a := range st.apps {
		a.Append(vals[i])
	}
	st.create = append(st.create, tid)
	st.invalid = append(st.invalid, 0)
	return len(st.create) - 1
}

// appendRawRow adds a row with explicit MVCC timestamps; delta stores only.
// The online merge uses it to fold delta2 rows back into the delta when a
// merge is aborted, preserving the rows' original visibility.
func (st *Store) appendRawRow(vals []column.Value, create, invalid txn.TID) int {
	if st.mv != nil {
		panic("table: append to main store")
	}
	for i, a := range st.apps {
		a.Append(vals[i])
	}
	st.create = append(st.create, create)
	st.invalid = append(st.invalid, invalid)
	return len(st.create) - 1
}

// Invalidations returns the store's invalidation event counter. It only
// ever grows while the store is live (aborted invalidations keep their
// tick), so an unchanged counter guarantees no new invalidation.
func (st *Store) Invalidations() uint64 { return atomic.LoadUint64(&st.invalidations) }

// MemBytes estimates the store's heap footprint: column payloads, the MVCC
// metadata (a delta's two timestamp arrays; a main's invalidation log,
// bitset and exceptions) and the primary-key index (a delta's map entry
// counted at its 12 payload bytes).
func (st *Store) MemBytes() uint64 {
	var m uint64
	for _, c := range st.cols {
		m += c.MemBytes()
	}
	m += uint64(len(st.create)+len(st.invalid)) * 8
	if st.mv != nil {
		m += st.mv.memBytes()
	}
	m += uint64(len(st.keyRows))*4 + uint64(len(st.keys))*12
	return m
}

// Row materializes a row as values; primarily for tests and examples.
func (st *Store) Row(row int) []column.Value {
	out := make([]column.Value, len(st.cols))
	for i, c := range st.cols {
		out[i] = c.Value(row)
	}
	return out
}

// Partition couples a main store with its delta store. A plain table has a
// single partition; a hot/cold aged table has one partition per temperature
// class, each with its own main and delta (paper Sec. 5.4).
type Partition struct {
	Name  string
	Main  *Store
	Delta *Store
	// Delta2 is the write-coalescing second delta installed while an online
	// merge (or online aging) is running on this partition: Main and Delta
	// are frozen as the merge input snapshot, concurrent writers append
	// here, and the swap promotes this store to the new Delta. Nil when no
	// merge is active.
	Delta2 *Store
	// Range restricts the partition to routing-column values in
	// [Lo, Hi); both bounds are ignored when the table has one partition.
	Lo, Hi int64
	// merge is the bookkeeping of the in-flight online merge: the log of
	// the invalidations that hit the frozen stores while the new main was
	// being built off to the side, replayed during the swap critical
	// section.
	merge *mergeState
}

// mergeState tracks mutations against a partition whose stores are frozen
// by an in-flight online merge.
type mergeState struct {
	// mainLog is the frozen main's invalidation-log length at the merge
	// snapshot: the build reads the entries before it, the swap replays
	// the ones after it onto the new main.
	mainLog int
	// deltaInv lists frozen-delta rows invalidated during the build
	// (writers stamp the delta's invalid[] slot in place); the swap copies
	// their final timestamps into the new main.
	deltaInv []int
}

// Stores lists the partition's physical stores, main first. While an online
// merge is active the write-coalescing delta2 is included.
func (p *Partition) Stores() []*Store {
	if p.Delta2 != nil {
		return []*Store{p.Main, p.Delta, p.Delta2}
	}
	return []*Store{p.Main, p.Delta}
}
