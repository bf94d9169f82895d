package table

import (
	"fmt"
	"log/slog"
	"time"

	"aggcache/internal/column"
	"aggcache/internal/txn"
)

// AgeOnline moves the hot/cold boundary of a two-partition range-partitioned
// table to newSplit and redistributes the main rows accordingly — the data
// aging operation underlying the multi-partition scenario of paper
// Sec. 5.4 — without blocking traffic. Both deltas must be empty (merge
// first): aging is an administrative operation on settled data. The phases
// mirror the delta merge (see online.go):
//
//	prepare: both partitions are frozen, each gets a delta2, and inserts
//	    start routing against the NEW boundary so coalesced rows land in
//	    their post-swap partition.
//	build:   both mains are re-bucketed by the new boundary off to the
//	    side, all rows carried with their creating transactions and their
//	    invalidations up to the aging snapshot (aging never drops
//	    versions), while queries keep reading the frozen layout. The new
//	    mains settle at the oldest pinned snapshot.
//	swap:    an O(invalidations since prepare) critical section installs
//	    the new mains (each built with its own primary-key index), promotes
//	    the delta2 stores with theirs, and moves the boundary.
func (db *DB) AgeOnline(tableName string, newSplit int64) error {
	// ---- prepare (writer lock, O(1)) ----
	db.mu.Lock()
	t := db.tables[tableName]
	if t == nil {
		db.mu.Unlock()
		return fmt.Errorf("table %s does not exist", tableName)
	}
	if len(t.parts) != 2 {
		db.mu.Unlock()
		return fmt.Errorf("table %s: aging requires exactly two partitions, got %d", tableName, len(t.parts))
	}
	cold, hot := t.parts[0], t.parts[1]
	if cold.merge != nil || hot.merge != nil {
		db.mu.Unlock()
		return fmt.Errorf("table %s: aging requires no online merge in flight", tableName)
	}
	if cold.Delta.Rows() != 0 || hot.Delta.Rows() != 0 {
		db.mu.Unlock()
		return fmt.Errorf("table %s: aging requires empty deltas; merge first", tableName)
	}
	if newSplit < cold.Hi {
		db.mu.Unlock()
		return fmt.Errorf("table %s: aging cannot move the boundary backwards (%d < %d)", tableName, newSplit, cold.Hi)
	}
	snap := db.txns.ReadSnapshot()
	horizon := db.txns.OldestPinned()
	for _, p := range []*Partition{cold, hot} {
		p.Delta2 = newDeltaStore(&t.schema)
		p.merge = &mergeState{mainLog: p.Main.mv.log.len()}
	}
	split := newSplit
	t.pendingSplit = &split
	db.mobs.onlineActive.Add(1)
	if db.ev.Enabled() {
		db.ev.Emit("table.age_online_start",
			slog.String("table", tableName), slog.Int64("new_split", newSplit))
	}
	db.mu.Unlock()

	abort := func() {
		db.mu.Lock()
		t.ageAbortLocked(db)
		db.mu.Unlock()
	}
	if err := db.faults.At(FaultMergePrepared); err != nil {
		abort()
		return err
	}
	if err := db.faults.At(FaultMergeBuild); err != nil {
		abort()
		return err
	}

	// ---- build (no lock): re-bucket both frozen mains by the new split ----
	type bucket struct {
		builders []column.MainBuilder
		versions mainVersions
	}
	dest := func(st *Store, row int) int {
		if st.cols[t.routeCol].Int64(row) < newSplit {
			return 0
		}
		return 1
	}
	var sizes [2]int
	for _, p := range []*Partition{cold, hot} {
		for row := 0; row < p.Main.Rows(); row++ {
			sizes[dest(p.Main, row)]++
		}
	}
	buckets := [2]*bucket{}
	for d := range buckets {
		buckets[d] = &bucket{builders: newMainBuilders(&t.schema, sizes[d]), versions: mainVersions{settled: horizon}}
	}
	var rowMaps [2][]RowRef // old (part,row) -> new (part,row)
	for pi, p := range []*Partition{cold, hot} {
		st := p.Main
		tids := st.mv.frozenTIDs(p.merge.mainLog, snap.High)
		rm := make([]RowRef, st.Rows())
		for row := range rm {
			d := dest(st, row)
			bk := buckets[d]
			for i := range bk.builders {
				bk.builders[i].Append(st.cols[i].Value(row))
			}
			rm[row] = RowRef{Part: d, InMain: true, Row: bk.versions.rows}
			bk.versions.add(tids(row))
		}
		rowMaps[pi] = rm
	}
	var newMains [2]*Store
	for pi, bk := range buckets {
		newMains[pi] = newMainStore(&t.schema, bk.builders, &bk.versions)
	}
	// Let cache-maintenance hooks settle their baselines to the aging
	// snapshot under the shared reader lock (the fold itself is empty:
	// aging runs with empty deltas).
	db.mu.RLock()
	for _, h := range db.hooks {
		h.FoldOnline(db, t, 0, snap)
		h.FoldOnline(db, t, 1, snap)
	}
	db.mu.RUnlock()

	if err := db.faults.At(FaultMergeBeforeSwap); err != nil {
		abort()
		return err
	}

	// ---- swap (writer lock) ----
	db.mu.Lock()
	swapBegin := time.Now()
	oldMains := [2]*Store{cold.Main, hot.Main}
	for pi, p := range []*Partition{cold, hot} {
		p.Main = newMains[pi]
		p.Delta = p.Delta2
		p.Delta2 = nil
		p.Merges++
	}
	cold.Hi = newSplit
	hot.Lo = newSplit
	t.pendingSplit = nil
	for _, h := range db.hooks {
		h.SwapOnline(db, t, 0, snap)
		h.SwapOnline(db, t, 1, snap)
	}
	// Replay invalidations that hit the frozen mains during the build (the
	// deltas were frozen empty).
	for pi, p := range []*Partition{cold, hot} {
		oldMains[pi].mv.replay(p.merge.mainLog, func(row int) (*Store, int) {
			d := rowMaps[pi][row]
			return t.parts[d.Part].Main, d.Row
		})
	}
	cold.merge, hot.merge = nil, nil
	db.mobs.onlineActive.Add(-1)
	swapDur := time.Since(swapBegin)
	db.mobs.swapLatency.Observe(swapDur)
	if db.ev.Enabled() {
		db.ev.Emit("table.age_online_swap",
			slog.String("table", tableName), slog.Int64("new_split", newSplit),
			slog.Int("cold_rows", newMains[0].Rows()), slog.Int("hot_rows", newMains[1].Rows()),
			slog.Int64("swap_ns", swapDur.Nanoseconds()))
	}
	db.mu.Unlock()
	return db.faults.At(FaultMergeAfterSwap)
}

// ageAbortLocked rolls an unfinished online aging back: delta2 rows, keys
// included, are re-routed by the old boundary into the (empty) frozen
// deltas and the pending split is discarded.
func (t *Table) ageAbortLocked(db *DB) {
	t.pendingSplit = nil
	for pi, p := range t.parts {
		d2 := p.Delta2
		if d2 == nil {
			continue
		}
		moved := make([]RowRef, d2.Rows())
		for row := range moved {
			vals := d2.Row(row)
			dest, err := t.routeFor(vals)
			if err != nil {
				dest = pi // cannot happen: values were routable at insert
			}
			nr := t.parts[dest].Delta.appendRawRow(vals, d2.create[row], txn.LoadTID(&d2.invalid[row]))
			moved[row] = RowRef{Part: dest, Row: nr}
		}
		for pk, row := range d2.keys {
			to := moved[row]
			t.parts[to.Part].Delta.carryKey(pk, to.Row)
		}
		p.Delta2 = nil
		p.merge = nil
	}
	for _, h := range db.hooks {
		h.AbortOnline(db, t, 0)
		h.AbortOnline(db, t, 1)
	}
	db.mobs.onlineActive.Add(-1)
	if db.ev.Enabled() {
		db.ev.Emit("table.age_online_abort", slog.String("table", t.schema.Name))
	}
}
