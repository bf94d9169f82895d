package table

import (
	"fmt"
	"log/slog"
	"time"

	"aggcache/internal/txn"
)

// This file implements the delta merge: a new main store is built from the
// live rows of the old main and the delta, encoded with fresh sorted
// dictionaries, and the delta is emptied (paper Sec. 2, [17]). Rebuilding
// under the exclusive writer lock would stall every reader for the full
// rebuild, so the merge is split into three phases and only an
// O(invalidations since S0) critical section ever blocks traffic:
//
//	prepare (writer lock, O(1)):
//	    The partition's main and delta are frozen as the merge input
//	    snapshot S0 (the lock contract guarantees no transaction is open,
//	    so S0 covers every row in them) and an empty delta2 store is
//	    installed. From here on writers append to delta2, invalidate
//	    frozen main rows through the main's own invalidation log (whose
//	    length at S0 the merge records) and frozen delta rows in place
//	    through atomic TID stores (listed for the swap), and queries read
//	    main + delta + delta2.
//	build (no lock):
//	    The new main is encoded off to the side from the frozen stores.
//	    Rows invalidated at or below the reclamation horizon — the oldest
//	    pinned read snapshot — are dropped; rows invalidated above it are
//	    retained, their invalidations the new main's first log entries, so
//	    pinned readers straddling the swap keep a consistent view; rows
//	    invalidated after S0 are carried as live and pick up their final
//	    timestamp during the swap replay. The new main settles at the
//	    horizon; rows created above it are its exceptions.
//	    Registered MergeHooks then pre-compute their maintenance folds
//	    under the shared reader lock.
//	swap (writer lock, O(invalidations since S0)):
//	    The new main is installed, delta2 becomes the delta, hooks apply
//	    their staged folds, and the invalidations since S0 are replayed
//	    onto the new main.
//
// Every store carries its own primary-key index (the new main's is built
// with it, delta2's keys move with it), so the swap rewrites no index.
// Aborting before the swap folds delta2, keys included, back into the delta
// and leaves the partition exactly re-mergeable; aborting after the swap is
// impossible — the swap is the commit point.

// OnlineMerge is an in-flight delta merge on one partition. Obtain one with
// DB.StartOnlineMerge, then call Build and Finish (or Abort). The wrappers
// MergeOnline/MergeTablesOnline drive the phases for callers that do not
// need to interleave their own work.
type OnlineMerge struct {
	db    *DB
	t     *Table
	p     *Partition
	name  string
	part  int
	keep  bool
	snap  txn.Snapshot // S0: the frozen stores' content snapshot
	hor   txn.TID      // reclamation horizon (oldest pinned read snapshot)
	begin time.Time
	built *mergedBuild
	done  bool
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

// mergedBuild is the output of the off-line build phase.
type mergedBuild struct {
	newMain *Store
	// mainMap/deltaMap translate old main/delta row numbers to new-main
	// rows (-1 for dropped rows) for the swap's invalidation replay.
	mainMap  []int
	deltaMap []int
	stats    MergeStats
}

// StartOnlineMerge freezes one partition and installs the write-coalescing
// delta2 — the O(1) prepare phase. The returned handle must be driven to
// Finish or Abort.
func (db *DB) StartOnlineMerge(tableName string, part int, keepInvalidated bool) (*OnlineMerge, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.startOnlineMergeLocked(tableName, part, keepInvalidated)
}

func (db *DB) startOnlineMergeLocked(tableName string, part int, keepInvalidated bool) (*OnlineMerge, error) {
	t := db.tables[tableName]
	if t == nil {
		return nil, fmt.Errorf("table %s does not exist", tableName)
	}
	if part < 0 || part >= len(t.parts) {
		return nil, fmt.Errorf("table %s: merge of unknown partition %d", tableName, part)
	}
	p := t.parts[part]
	if p.merge != nil {
		return nil, fmt.Errorf("table %s: partition %d already has an online merge in flight", tableName, part)
	}
	om := &OnlineMerge{
		db: db, t: t, p: p, name: tableName, part: part, keep: keepInvalidated,
		snap:  db.txns.ReadSnapshot(),
		hor:   db.txns.OldestPinned(),
		begin: time.Now(),
	}
	p.Delta2 = newDeltaStore(&t.schema)
	p.merge = &mergeState{mainLog: p.Main.mv.log.len()}
	db.mobs.onlineActive.Add(1)
	if db.ev.Enabled() {
		db.ev.Emit("table.merge_online_start",
			slog.String("table", tableName), slog.Int("part", part),
			slog.Int("delta_rows", p.Delta.Rows()), slog.Uint64("snap_high", uint64(om.snap.High)))
	}
	if err := db.faults.At(FaultMergePrepared); err != nil {
		om.abortLocked()
		return nil, err
	}
	return om, nil
}

// Build runs the off-line phase: it encodes the new main from the frozen
// stores without holding any lock, then lets the merge hooks pre-compute
// their maintenance folds under the shared reader lock. Concurrent readers
// and writers proceed throughout. On error the caller must Abort.
func (om *OnlineMerge) Build() error {
	if om.done || om.p.merge == nil {
		return fmt.Errorf("table %s: online merge already finished", om.name)
	}
	if err := om.db.faults.At(FaultMergeBuild); err != nil {
		return err
	}
	om.built = om.t.buildOnline(om.part, om.snap, om.hor, om.keep)
	om.db.mu.RLock()
	for _, h := range om.db.hooks {
		h.FoldOnline(om.db, om.t, om.part, om.snap)
	}
	om.db.mu.RUnlock()
	return nil
}

// buildOnline encodes the new main store from the frozen main and delta.
// It runs without the database lock: the frozen stores receive no appends
// (writers have been redirected to delta2) and their create timestamps are
// settled, so only invalidations can change underneath. The main's are
// read from its log up to the merge snapshot's position, the delta's
// invalid[] slots atomically with any value above S0 normalized to "live
// here, final timestamp applied at swap" via the swap replay.
//
// The new main settles at the reclamation horizon: rows created above it
// become exceptions, retained invalidations its first log entries.
func (t *Table) buildOnline(part int, snap txn.Snapshot, horizon txn.TID, keep bool) *mergedBuild {
	p := t.parts[part]
	b := &mergedBuild{}
	// The frozen main and delta bound the new main's rows from above.
	rows := p.Main.Rows() + p.Delta.Rows()
	builders := newMainBuilders(&t.schema, rows)
	v := &mainVersions{settled: horizon}
	appendFrom := func(st *Store, tids func(row int) (create, inv txn.TID), fromMain bool) []int {
		rowMap := make([]int, st.Rows())
		for row := range rowMap {
			rowMap[row] = -1
			create, inv := tids(row)
			if create == txn.Aborted {
				b.stats.Dropped++
				continue
			}
			if inv > snap.High {
				// Invalidated during the merge: carry as live; the swap
				// replay copies the final timestamp (or none if the
				// invalidating transaction aborts).
				inv = 0
			}
			if inv != 0 && !keep {
				if inv <= horizon {
					b.stats.Dropped++
					continue
				}
				// A pinned read snapshot older than the invalidation can
				// still see this version: retain it, timestamps intact.
				b.stats.RetainedForReaders++
			}
			for i := range builders {
				builders[i].Append(st.cols[i].Value(row))
			}
			rowMap[row] = v.rows
			v.add(create, inv)
			if fromMain {
				b.stats.FromMain++
			} else {
				b.stats.FromDelta++
			}
		}
		return rowMap
	}
	b.mainMap = appendFrom(p.Main, p.Main.mv.frozenTIDs(p.merge.mainLog, snap.High), true)
	b.deltaMap = appendFrom(p.Delta, func(row int) (txn.TID, txn.TID) {
		return p.Delta.create[row], txn.LoadTID(&p.Delta.invalid[row])
	}, false)
	b.newMain = newMainStore(&t.schema, builders, v)
	return b
}

// Finish runs the swap critical section and commits the merge. On an
// injected crash before the swap the merge is rolled back and the old
// partition left intact; after the swap the new state is already durable
// and only the error is surfaced.
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
	if ferr := om.db.faults.At(FaultMergeAfterSwap); ferr != nil {
		return stats, ferr
	}
	return stats, nil
}

// finishLocked is the swap critical section; the caller holds the writer
// lock. The lock contract guarantees quiescence: every transaction has
// resolved, so the invalidation log replays final values.
func (om *OnlineMerge) finishLocked() (MergeStats, error) {
	db, t, p, part := om.db, om.t, om.p, om.part
	if om.done || p.merge == nil {
		return MergeStats{}, fmt.Errorf("table %s: online merge already finished", om.name)
	}
	if om.built == nil {
		return MergeStats{}, fmt.Errorf("table %s: online merge not built", om.name)
	}
	swapBegin := time.Now()
	oldMain, oldDelta, d2 := p.Main, p.Delta, p.Delta2
	stats := om.built.stats
	stats.Delta2Rows = d2.Rows()
	p.Main = om.built.newMain
	p.Delta = d2
	p.Delta2 = nil
	p.Merges++
	// Hooks apply their staged folds. The replay below logs only
	// invalidations above S0, so it leaves the new main's visibility at S0
	// as it is.
	for _, h := range db.hooks {
		h.SwapOnline(db, t, part, om.snap)
	}
	// Replay invalidations that hit the frozen stores during the build —
	// the frozen main's log past its S0 position and the listed delta rows
	// — onto the new main.
	mainMap, deltaMap := om.built.mainMap, om.built.deltaMap
	oldMain.mv.replay(p.merge.mainLog, func(row int) (*Store, int) {
		if nr := mainMap[row]; nr >= 0 {
			return p.Main, nr
		}
		return nil, 0
	})
	for _, row := range p.merge.deltaInv {
		fin := txn.LoadTID(&oldDelta.invalid[row])
		if fin == 0 {
			continue // invalidating transaction aborted
		}
		// A row listed twice (an aborted invalidation, then a committed
		// one) is replayed once.
		if nr := deltaMap[row]; nr >= 0 && !p.Main.mv.isDead(nr) {
			p.Main.replayInvalidation(nr, fin)
		}
	}
	p.merge = nil
	om.built = nil
	om.done = true

	db.mobs.merges.Inc()
	db.mobs.fromMain.Add(int64(stats.FromMain))
	db.mobs.fromDelta.Add(int64(stats.FromDelta))
	db.mobs.dropped.Add(int64(stats.Dropped))
	db.mobs.delta2Rows.Add(int64(stats.Delta2Rows))
	db.mobs.onlineActive.Add(-1)
	swapDur := time.Since(swapBegin)
	db.mobs.swapLatency.Observe(swapDur)
	db.mobs.latency.Observe(time.Since(om.begin))
	if db.ev.Enabled() {
		db.ev.Emit("table.merge_online_swap",
			slog.String("table", om.name), slog.Int("part", part),
			slog.Int("from_main", stats.FromMain), slog.Int("from_delta", stats.FromDelta),
			slog.Int("dropped", stats.Dropped), slog.Int("retained", stats.RetainedForReaders),
			slog.Int("delta2_rows", stats.Delta2Rows), slog.Int64("swap_ns", swapDur.Nanoseconds()))
	}
	return stats, nil
}

// Abort rolls an unfinished online merge back: the new main is discarded
// and the delta2 rows are folded into the delta, leaving the partition
// exactly as if the merge had never started (and re-mergeable). Aborting an
// already-finished merge is a no-op.
func (om *OnlineMerge) Abort() {
	om.db.mu.Lock()
	defer om.db.mu.Unlock()
	om.abortLocked()
}

func (om *OnlineMerge) abortLocked() {
	db, t, p := om.db, om.t, om.p
	if om.done || p.merge == nil {
		return
	}
	d2 := p.Delta2
	base := p.Delta.Rows()
	for row := 0; row < d2.Rows(); row++ {
		p.Delta.appendRawRow(d2.Row(row), d2.create[row], txn.LoadTID(&d2.invalid[row]))
	}
	for pk, row := range d2.keys {
		p.Delta.carryKey(pk, base+int(row))
	}
	p.Delta2 = nil
	p.merge = nil
	om.built = nil
	om.done = true
	for _, h := range db.hooks {
		h.AbortOnline(db, t, om.part)
	}
	db.mobs.onlineActive.Add(-1)
	if db.ev.Enabled() {
		db.ev.Emit("table.merge_online_abort",
			slog.String("table", om.name), slog.Int("part", om.part),
			slog.Int("delta2_rows", d2.Rows()))
	}
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
	if err := om.Build(); err != nil {
		om.Abort()
		return MergeStats{}, err
	}
	return om.Finish()
}

// MergeTablesOnline merges partition 0 of several tables with all builds
// running off-line and a single combined swap critical section — the
// synchronized merge of related transactional tables that maximizes
// join-pruning success (paper Sec. 5.2): their deltas empty out atomically,
// so join pruning sees them together.
//
// All prepares happen under one writer lock so every table freezes at the
// same snapshot S0: cache-maintenance hooks settle entries to a single
// baseline, which their staged cross-table folds depend on.
func (db *DB) MergeTablesOnline(keepInvalidated bool, tableNames ...string) error {
	var oms []*OnlineMerge
	abortAll := func() {
		for _, om := range oms {
			om.Abort()
		}
	}
	db.mu.Lock()
	for _, name := range tableNames {
		om, err := db.startOnlineMergeLocked(name, 0, keepInvalidated)
		if err != nil {
			for _, prev := range oms {
				prev.abortLocked()
			}
			db.mu.Unlock()
			return err
		}
		oms = append(oms, om)
	}
	db.mu.Unlock()
	for _, om := range oms {
		if err := om.Build(); err != nil {
			abortAll()
			return err
		}
	}
	if err := db.faults.At(FaultMergeBeforeSwap); err != nil {
		abortAll()
		return err
	}
	db.mu.Lock()
	for _, om := range oms {
		if _, err := om.finishLocked(); err != nil {
			db.mu.Unlock()
			abortAll()
			return err
		}
	}
	db.mu.Unlock()
	return db.faults.At(FaultMergeAfterSwap)
}
