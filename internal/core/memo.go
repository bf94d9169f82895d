package core

import (
	"aggcache/internal/query"
	"aggcache/internal/txn"
)

// The result memo: each entry keeps the last fully compensated answer it
// served (Entry.memo) with the read watermark and strategy it was computed
// at. At a read snapshot a table's visible rows change only through a
// transaction whose ID lies between the memo's watermark and the
// snapshot's, and every such write raises the table's LastWrite. So while
// no table of the query was written above the memo's watermark and none is
// merging, the memo is the answer the full path would compute — the same
// cached value, compensated over the same visible rows, in the same order.
// Entry value changes (rebuild, persisted main compensation, merge fold,
// stale marking) drop it, so a memo never outlives the value it was
// computed from. Eviction and Clear need no drop: the memo goes with the
// entry, which no lookup reaches any more, and storeMemo refuses an entry
// that is no longer resident. ExplainAnalyze never serves it (see
// Manager.ExplainAnalyze).

// memoFresh reports whether a result of the entry's query computed at read
// watermark high is still exact for every later read snapshot: no table of
// the query is merging and none was written by a transaction above high. It
// walks the table handles the entry resolved once (Entry.tables). Callers
// hold the database lock (either side).
func memoFresh(e *Entry, high txn.TID) bool {
	for _, t := range e.tables {
		if t.MergeActive() || t.LastWrite() > high {
			return false
		}
	}
	return true
}

// memoServable reports whether the entry's memo answers a query at snap
// under strat. Own-writes snapshots (Self != 0) see rows no read watermark
// describes, and a snapshot older than the memo may not see all of it.
// Callers hold m.mu.
func (m *Manager) memoServable(e *Entry, snap txn.Snapshot, strat Strategy) bool {
	return e.memo != nil && snap.Self == 0 && snap.High >= e.memoHigh &&
		e.memoStrat == strat && memoFresh(e, e.memoHigh)
}

// storeMemo keeps a clone of res, the answer just computed for a resident
// entry at snap under strat, as the entry's memo — unless the snapshot sees
// its own writes, lies below the current memo's watermark (memoHigh never
// moves backwards), or a table of the query is merging or was written above
// it, which would make the memo unservable from the start. The clone shares
// res's arrays copy-on-write, so storing copies nothing. Callers hold m.mu.
func (m *Manager) storeMemo(e *Entry, snap txn.Snapshot, strat Strategy, res *query.AggTable) {
	if snap.Self != 0 || snap.High < e.memoHigh || m.entries[e.Key] != e ||
		!memoFresh(e, snap.High) {
		return
	}
	e.memo, e.memoHigh, e.memoStrat = res.Clone(), snap.High, strat
}

// dropMemo forgets the entry's memo; called wherever Value or the stores
// under it change. memoHigh stays, so a slower reader of an older snapshot
// cannot install a memo below it. Callers hold m.mu.
func (e *Entry) dropMemo() { e.memo = nil }
