package table

import (
	"fmt"
	"log/slog"
	"time"

	"aggcache/internal/column"
	"aggcache/internal/txn"
)

// This file implements the online rebuild of a set of partitions: the
// delta merge, where each partition's new main store is built from the live
// rows of its old main and delta, encoded with fresh sorted dictionaries,
// and the delta is emptied (paper Sec. 2, [17]); and the data aging of
// age.go, the same rebuild with the main rows routed by a moved boundary.
// Rebuilding under the exclusive writer lock would stall every reader for
// the full rebuild, so it is split into three phases and only an
// O(invalidations since S0) critical section ever blocks traffic:
//
//	prepare (writer lock, O(members)):
//	    Every member partition's main and delta are frozen as the rebuild
//	    input snapshot S0 (the lock contract guarantees no transaction is
//	    open, so S0 covers every row in them) and an empty delta2 store is
//	    installed. An aging also sets the table's pending boundary, which
//	    inserts route against from here on. Writers append to delta2,
//	    invalidate frozen main rows through the main's own invalidation log
//	    (whose length at S0 the rebuild records) and frozen delta rows in
//	    place through atomic TID stores (listed for the swap), and queries
//	    read main + delta + delta2.
//	build (no lock):
//	    The new mains are encoded off to the side from the frozen stores,
//	    each row into the new main of the partition the table's boundary
//	    routes it to — its own, unless an aging moves the boundary. Aborted
//	    rows are dropped. Unless the rebuild keeps invalidated versions,
//	    rows invalidated at or below the reclamation horizon — the oldest
//	    pinned read snapshot — are dropped too; rows invalidated above it
//	    are retained, their invalidations the new main's first log entries,
//	    so pinned readers straddling the swap keep a consistent view. Rows
//	    invalidated after S0 are carried as live and pick up their final
//	    timestamp during the swap replay. The new mains settle at the
//	    horizon; rows created above it are their exceptions. Registered
//	    MergeHooks then pre-compute their maintenance folds, one member at
//	    a time, under the shared reader lock.
//	swap (writer lock, O(invalidations since S0)):
//	    The new mains are installed, each delta2 becomes its partition's
//	    delta, a pending boundary moves, hooks apply their staged folds, and
//	    the invalidations since S0 are replayed through the row maps onto
//	    the new mains.
//
// Every store carries its own primary-key index (a new main's is built with
// it, delta2's keys move with it), so the swap rewrites no index. Aborting
// before the swap drops a pending boundary and folds each delta2, keys
// included, into the delta of the partition the table's current boundary
// routes its rows to, leaving every member exactly re-mergeable; aborting
// after the swap is impossible — the swap is the commit point.

// OnlineMerge is an in-flight online rebuild of a set of partitions frozen
// at one snapshot. Obtain one for a single partition with
// DB.StartOnlineMerge, then call Build and Finish (or Abort). The wrappers
// MergeOnline, MergeTablesOnline and AgeOnline drive the phases for callers
// that do not need to interleave their own work.
type OnlineMerge struct {
	db      *DB
	name    string // the first member's table, for error messages
	members []*member
	keep    bool
	// split is the boundary an aging moves its table to, nil for a delta
	// merge. An aging's members are its table's two partitions, in order.
	split *int64
	snap  txn.Snapshot // S0: the frozen stores' content snapshot
	hor   txn.TID      // reclamation horizon (oldest pinned read snapshot)
	begin time.Time
	built bool
	done  bool
}

// member is one partition of an online rebuild: its frozen stores, and
// what the build produced for it.
type member struct {
	t           *Table
	part        int
	p           *Partition
	main, delta *Store
	// builders and versions collect the partition's new main during the
	// build; newMain is the result.
	builders []column.MainBuilder
	versions mainVersions
	newMain  *Store
	// mainMap/deltaMap translate the frozen main's/delta's row numbers to
	// slots in the new mains (see carry), -1 for dropped rows, for the
	// swap's invalidation replay.
	mainMap  []int
	deltaMap []int
	stats    MergeStats
}

// MergeStats summarizes one delta-merge operation.
type MergeStats struct {
	// FromMain counts rows carried over from the old main store.
	FromMain int
	// FromDelta counts rows propagated from the delta store.
	FromDelta int
	// Dropped counts invalidated or aborted rows removed by the merge.
	Dropped int
	// RetainedForReaders counts invalidated rows the merge kept because a
	// pinned read snapshot predating the invalidation could still see them
	// (TID-watermark handling).
	RetainedForReaders int
	// Delta2Rows counts rows that coalesced in the second delta while the
	// merge was building; they become the partition's new delta.
	Delta2Rows int
}

func (s *MergeStats) add(o MergeStats) {
	s.FromMain += o.FromMain
	s.FromDelta += o.FromDelta
	s.Dropped += o.Dropped
	s.RetainedForReaders += o.RetainedForReaders
	s.Delta2Rows += o.Delta2Rows
}

// StartOnlineMerge freezes one partition and installs the write-coalescing
// delta2 — the O(1) prepare phase. The returned handle must be driven to
// Finish or Abort.
func (db *DB) StartOnlineMerge(tableName string, part int, keepInvalidated bool) (*OnlineMerge, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[tableName]
	if t == nil {
		return nil, fmt.Errorf("table %s does not exist", tableName)
	}
	if part < 0 || part >= len(t.parts) {
		return nil, fmt.Errorf("table %s: merge of unknown partition %d", tableName, part)
	}
	return db.prepareLocked(keepInvalidated, nil, []*member{{t: t, part: part}})
}

// prepareLocked freezes the members' partitions, named by their table and
// partition index, at one snapshot — the prepare phase — and sets split as
// the pending boundary of an aging's table. The caller holds the writer
// lock.
func (db *DB) prepareLocked(keep bool, split *int64, members []*member) (*OnlineMerge, error) {
	om := &OnlineMerge{
		db: db, name: members[0].t.schema.Name, keep: keep, split: split,
		snap:  db.txns.ReadSnapshot(),
		hor:   db.txns.OldestPinned(),
		begin: time.Now(),
	}
	for _, mb := range members {
		p := mb.t.parts[mb.part]
		if p.merge != nil {
			om.abortLocked()
			return nil, fmt.Errorf("table %s: partition %d already has an online merge in flight", mb.t.schema.Name, mb.part)
		}
		mb.p, mb.main, mb.delta = p, p.Main, p.Delta
		om.members = append(om.members, mb)
		p.Delta2 = newDeltaStore(&mb.t.schema)
		p.merge = &mergeState{mainLog: p.Main.mv.log.len()}
		db.mobs.onlineActive.Add(1)
		if split == nil && db.ev.Enabled() {
			db.ev.Emit("table.merge_online_start",
				slog.String("table", mb.t.schema.Name), slog.Int("part", mb.part),
				slog.Int("delta_rows", p.Delta.Rows()), slog.Uint64("snap_high", uint64(om.snap.High)))
		}
	}
	if split != nil {
		members[0].t.pendingSplit = split
		if db.ev.Enabled() {
			db.ev.Emit("table.age_online_start",
				slog.String("table", om.name), slog.Int64("new_split", *split))
		}
	}
	if err := db.faults.At(FaultMergePrepared); err != nil {
		om.abortLocked()
		return nil, err
	}
	return om, nil
}

// Build runs the off-line phase: it encodes the new mains from the frozen
// stores without holding any lock, then lets the merge hooks pre-compute
// their maintenance folds, member by member, under the shared reader lock.
// Concurrent readers and writers proceed throughout. On error the caller
// must Abort.
func (om *OnlineMerge) Build() error {
	if om.done {
		return fmt.Errorf("table %s: online merge already finished", om.name)
	}
	if err := om.db.faults.At(FaultMergeBuild); err != nil {
		return err
	}
	for _, mb := range om.members {
		mb.builders = newMainBuilders(&mb.t.schema, mb.main.Rows()+mb.delta.Rows())
		mb.versions = mainVersions{settled: om.hor}
		mb.stats = MergeStats{}
	}
	for i, mb := range om.members {
		mb.mainMap = om.carry(i, mb.main, mb.main.mv.frozenTIDs(mb.p.merge.mainLog, om.snap.High), &mb.stats.FromMain)
		mb.deltaMap = om.carry(i, mb.delta, func(row int) (txn.TID, txn.TID) {
			return mb.delta.create[row], txn.LoadTID(&mb.delta.invalid[row])
		}, &mb.stats.FromDelta)
	}
	for _, mb := range om.members {
		mb.newMain = newMainStore(&mb.t.schema, mb.builders, &mb.versions)
		mb.builders = nil
	}
	om.built = true
	for _, mb := range om.members {
		om.db.mu.RLock()
		for _, h := range om.db.hooks {
			h.FoldOnline(om.db, mb.t, mb.part, om.snap)
		}
		om.db.mu.RUnlock()
	}
	return nil
}

// carry appends the carried rows of member i's frozen store st to the new
// mains and returns the store's row map. A row lands in member i's new main
// unless the rebuild moves the boundary; then in the one the pending
// boundary routes it to. A carried row's slot is newRow*len(members) +
// destination member, so a one-member rebuild's slot is the new row itself.
// Frozen stores receive no appends (writers have been redirected to delta2)
// and their create timestamps are settled, so only invalidations can change
// underneath: tids reads them as of S0, and a value above S0 is normalized
// to "live here, final timestamp applied by the swap replay".
func (om *OnlineMerge) carry(i int, st *Store, tids func(row int) (create, inv txn.TID), carried *int) []int {
	mb, n := om.members[i], len(om.members)
	rowMap := make([]int, st.Rows())
	for row := range rowMap {
		rowMap[row] = -1
		create, inv := tids(row)
		if create == txn.Aborted {
			mb.stats.Dropped++
			continue
		}
		if inv > om.snap.High {
			inv = 0
		}
		if inv != 0 && !om.keep {
			if inv <= om.hor {
				mb.stats.Dropped++
				continue
			}
			// A pinned read snapshot older than the invalidation can
			// still see this version: retain it, timestamps intact.
			mb.stats.RetainedForReaders++
		}
		dest := i
		if om.split != nil {
			dest = mb.t.agedPart(st.cols[mb.t.routeCol].Int64(row))
		}
		d := om.members[dest]
		for c := range d.builders {
			d.builders[c].Append(st.cols[c].Value(row))
		}
		rowMap[row] = d.versions.rows*n + dest
		d.versions.add(create, inv)
		*carried++
	}
	return rowMap
}

// slot resolves a row-map slot to the new main and row it names; a dropped
// row's slot resolves to a nil store.
func (om *OnlineMerge) slot(s int) (*Store, int) {
	if s < 0 {
		return nil, 0
	}
	n := len(om.members)
	return om.members[s%n].newMain, s / n
}

// Finish runs the swap critical section and commits the rebuild, returning
// the members' summed merge statistics. On an injected crash before the
// swap the rebuild is rolled back and the old partitions left intact; after
// the swap the new state is already durable and only the error is surfaced.
func (om *OnlineMerge) Finish() (MergeStats, error) {
	if err := om.db.faults.At(FaultMergeBeforeSwap); err != nil {
		om.Abort()
		return MergeStats{}, err
	}
	om.db.mu.Lock()
	stats, err := om.finishLocked()
	om.db.mu.Unlock()
	if err != nil {
		return stats, err
	}
	return stats, om.db.faults.At(FaultMergeAfterSwap)
}

// finishLocked is the swap critical section; the caller holds the writer
// lock. The lock contract guarantees quiescence: every transaction has
// resolved, so the invalidation logs replay final values.
func (om *OnlineMerge) finishLocked() (MergeStats, error) {
	db := om.db
	if om.done {
		return MergeStats{}, fmt.Errorf("table %s: online merge already finished", om.name)
	}
	if !om.built {
		return MergeStats{}, fmt.Errorf("table %s: online merge not built", om.name)
	}
	swapBegin := time.Now()
	for _, mb := range om.members {
		p := mb.p
		mb.stats.Delta2Rows = p.Delta2.Rows()
		p.Main, p.Delta, p.Delta2 = mb.newMain, p.Delta2, nil
	}
	if om.split != nil {
		t := om.members[0].t
		t.parts[0].Hi, t.parts[1].Lo = *om.split, *om.split
		t.pendingSplit = nil
	}
	// Hooks apply their staged folds. The replay below logs only
	// invalidations above S0, so it leaves the new mains' visibility at S0
	// as it is.
	for _, mb := range om.members {
		for _, h := range db.hooks {
			h.SwapOnline(db, mb.t, mb.part, om.snap)
		}
	}
	// Replay invalidations that hit the frozen stores during the build —
	// each frozen main's log past its S0 position and the listed delta
	// rows — onto the new mains.
	for _, mb := range om.members {
		mb.main.mv.replay(mb.p.merge.mainLog, func(row int) (*Store, int) { return om.slot(mb.mainMap[row]) })
		for _, row := range mb.p.merge.deltaInv {
			fin := txn.LoadTID(&mb.delta.invalid[row])
			if fin == 0 {
				continue // invalidating transaction aborted
			}
			// A row listed twice (an aborted invalidation, then a committed
			// one) is replayed once.
			if st, nr := om.slot(mb.deltaMap[row]); st != nil && !st.mv.isDead(nr) {
				st.replayInvalidation(nr, fin)
			}
		}
		mb.p.merge = nil
	}
	om.done = true
	swapDur := time.Since(swapBegin)
	db.mobs.swapLatency.Observe(swapDur)
	db.mobs.onlineActive.Add(-int64(len(om.members)))
	var total MergeStats
	for _, mb := range om.members {
		total.add(mb.stats)
		if om.split != nil {
			continue
		}
		db.mobs.merges.Inc()
		db.mobs.fromMain.Add(int64(mb.stats.FromMain))
		db.mobs.fromDelta.Add(int64(mb.stats.FromDelta))
		db.mobs.dropped.Add(int64(mb.stats.Dropped))
		db.mobs.delta2Rows.Add(int64(mb.stats.Delta2Rows))
		db.mobs.latency.Observe(time.Since(om.begin))
		if db.ev.Enabled() {
			db.ev.Emit("table.merge_online_swap",
				slog.String("table", mb.t.schema.Name), slog.Int("part", mb.part),
				slog.Int("from_main", mb.stats.FromMain), slog.Int("from_delta", mb.stats.FromDelta),
				slog.Int("dropped", mb.stats.Dropped), slog.Int("retained", mb.stats.RetainedForReaders),
				slog.Int("delta2_rows", mb.stats.Delta2Rows), slog.Int64("swap_ns", swapDur.Nanoseconds()))
		}
	}
	if om.split != nil && db.ev.Enabled() {
		parts := om.members[0].t.parts
		db.ev.Emit("table.age_online_swap",
			slog.String("table", om.name), slog.Int64("new_split", *om.split),
			slog.Int("cold_rows", parts[0].Main.Rows()), slog.Int("hot_rows", parts[1].Main.Rows()),
			slog.Int64("swap_ns", swapDur.Nanoseconds()))
	}
	om.members = nil
	return total, nil
}

// Abort rolls an unfinished online rebuild back: the new mains are
// discarded, a pending boundary is dropped, and each delta2's rows, keys
// included, are folded into the delta of the partition the table's current
// boundary routes them to, leaving every member exactly as if the rebuild
// had never started (and re-mergeable). Aborting an already-finished
// rebuild is a no-op.
func (om *OnlineMerge) Abort() {
	om.db.mu.Lock()
	defer om.db.mu.Unlock()
	om.abortLocked()
}

func (om *OnlineMerge) abortLocked() {
	db := om.db
	if om.done {
		return
	}
	om.done = true
	if om.split != nil {
		om.members[0].t.pendingSplit = nil
	}
	for _, mb := range om.members {
		t, d2 := mb.t, mb.p.Delta2
		moved := make([]RowRef, d2.Rows())
		for row := range moved {
			vals := d2.Row(row)
			dest := mb.part
			if om.split != nil {
				dest = t.agedPart(vals[t.routeCol].I)
			}
			nr := t.parts[dest].Delta.appendRawRow(vals, d2.create[row], txn.LoadTID(&d2.invalid[row]))
			moved[row] = RowRef{Part: dest, Row: nr}
		}
		for pk, row := range d2.keys {
			to := moved[row]
			t.parts[to.Part].Delta.carryKey(pk, to.Row)
		}
		mb.stats.Delta2Rows = d2.Rows()
		mb.p.Delta2, mb.p.merge = nil, nil
	}
	for _, mb := range om.members {
		for _, h := range db.hooks {
			h.AbortOnline(db, mb.t, mb.part)
		}
		db.mobs.onlineActive.Add(-1)
		if om.split == nil && db.ev.Enabled() {
			db.ev.Emit("table.merge_online_abort",
				slog.String("table", mb.t.schema.Name), slog.Int("part", mb.part),
				slog.Int("delta2_rows", mb.stats.Delta2Rows))
		}
	}
	if om.split != nil && db.ev.Enabled() {
		db.ev.Emit("table.age_online_abort", slog.String("table", om.name))
	}
	om.members = nil
}

// run drives a prepared rebuild through build and swap, rolling it back
// when the build fails.
func (om *OnlineMerge) run() (MergeStats, error) {
	if err := om.Build(); err != nil {
		om.Abort()
		return MergeStats{}, err
	}
	return om.Finish()
}

// MergeOnline runs a complete merge on one partition: prepare, off-line
// build, swap. Readers and writers are only excluded during the two O(small)
// critical sections.
//
// keepInvalidated keeps invalidated rows in the new main (for temporal
// query processing on historical data); they remain invisible to current
// snapshots via their MVCC timestamps.
func (db *DB) MergeOnline(tableName string, part int, keepInvalidated bool) (MergeStats, error) {
	om, err := db.StartOnlineMerge(tableName, part, keepInvalidated)
	if err != nil {
		return MergeStats{}, err
	}
	return om.run()
}

// MergeTablesOnline merges several tables as one online rebuild — partition
// 0 of each plus every other partition holding delta rows — frozen at one
// snapshot S0 under one writer lock, built off-line and swapped in a single
// critical section: the synchronized merge of related transactional tables
// that maximizes join-pruning success (paper Sec. 5.2). Their deltas, hot
// and cold alike, empty out atomically, so join pruning sees them together,
// and cache-maintenance hooks settle entries to a single baseline, which
// their staged cross-table folds depend on.
func (db *DB) MergeTablesOnline(keepInvalidated bool, tableNames ...string) error {
	db.mu.Lock()
	var members []*member
	for _, name := range tableNames {
		t := db.tables[name]
		if t == nil {
			db.mu.Unlock()
			return fmt.Errorf("table %s does not exist", name)
		}
		for pi, p := range t.parts {
			if pi == 0 || p.Delta.Rows() > 0 {
				members = append(members, &member{t: t, part: pi})
			}
		}
	}
	if len(members) == 0 {
		db.mu.Unlock()
		return nil
	}
	om, err := db.prepareLocked(keepInvalidated, nil, members)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = om.run()
	return err
}
