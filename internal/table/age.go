package table

import "fmt"

// AgeOnline moves the hot/cold boundary of a two-partition range-partitioned
// table to newSplit and redistributes the main rows accordingly — the data
// aging operation underlying the multi-partition scenario of paper
// Sec. 5.4 — without blocking traffic. Both deltas must be empty (merge
// first): aging is an administrative operation on settled data.
//
// Aging is one online rebuild (online.go) of both partitions with newSplit
// as the pending boundary: from prepare on, inserts route against it, so
// coalesced rows land in their post-swap partition; the build carries every
// main row, invalidated versions included, into the new main of the
// partition the new boundary routes it to (rows of aborted transactions
// are dropped, as a merge drops them); the swap moves the boundary.
func (db *DB) AgeOnline(tableName string, newSplit int64) error {
	db.mu.Lock()
	om, err := db.startAgingLocked(tableName, newSplit)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = om.run()
	return err
}

// startAgingLocked validates an aging and prepares its rebuild; the caller
// holds the writer lock.
func (db *DB) startAgingLocked(tableName string, newSplit int64) (*OnlineMerge, error) {
	t := db.tables[tableName]
	switch {
	case t == nil:
		return nil, fmt.Errorf("table %s does not exist", tableName)
	case len(t.parts) != 2:
		return nil, fmt.Errorf("table %s: aging requires exactly two partitions, got %d", tableName, len(t.parts))
	case t.MergeActive():
		return nil, fmt.Errorf("table %s: aging requires no online merge in flight", tableName)
	case t.DeltaRows() != 0:
		return nil, fmt.Errorf("table %s: aging requires empty deltas; merge first", tableName)
	case newSplit < t.parts[0].Hi:
		return nil, fmt.Errorf("table %s: aging cannot move the boundary backwards (%d < %d)", tableName, newSplit, t.parts[0].Hi)
	}
	return db.prepareLocked(true, &newSplit, []*member{{t: t, part: 0}, {t: t, part: 1}})
}
