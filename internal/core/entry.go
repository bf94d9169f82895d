package core

import (
	"time"

	"aggcache/internal/query"
	"aggcache/internal/table"
	"aggcache/internal/txn"
	"aggcache/internal/vec"
)

// Metrics are the per-entry profit metrics of paper Fig. 2. They feed the
// profit function used for admission and eviction decisions.
type Metrics struct {
	// Hits counts queries answered from this entry.
	Hits int64
	// MainExecTime is the time spent computing the entry on the main
	// stores at creation or rebuild — the work a cache hit saves.
	MainExecTime time.Duration
	// DeltaCompTime accumulates delta-compensation time across uses.
	DeltaCompTime time.Duration
	// MainRows is the number of records aggregated in the main stores.
	MainRows int64
	// DeltaRows accumulates records aggregated during delta compensation.
	DeltaRows int64
	// SizeBytes is the heap footprint of the cached aggregate value.
	SizeBytes uint64
	// LastAccess is the time of the most recent use.
	LastAccess time.Time
	// Maintenances counts merge-time incremental maintenance operations.
	Maintenances int64
	// Rebuilds counts full recomputations (join entries with main-store
	// invalidations).
	Rebuilds int64
	// DirtyCounter counts main-store invalidations applied via main
	// compensation since the last rebuild (Fig. 2's dirty counter).
	DirtyCounter int64
}

// Profit scores the entry for eviction: time saved per byte, scaled by
// use count. Higher is better. The formula follows the spirit of the
// cache-management policy in [20]: entries that are expensive to recompute,
// small, and frequently used are kept.
func (m *Metrics) Profit() float64 {
	saved := float64(m.MainExecTime) * float64(m.Hits+1)
	return saved / float64(m.SizeBytes+1)
}

// Entry is one aggregate cache entry (paper Fig. 2): the cache key (the
// query fingerprint), the cached value computed on main stores only, the
// visibility vectors of those stores at computation time, and the profit
// metrics.
//
// Locking invariant: every mutable field of an admitted Entry — Value,
// SnapHigh, MainVis, MainInv, Stale, the result memo, and all of Metrics
// (Hits, LastAccess, DirtyCounter, ...) — is guarded by the owning
// Manager's mu. The manager mutates them only with mu held (prepare,
// compensateAndAccount, mainCompensate, and the merge hook all lock it). Callers that obtained
// the pointer via Manager.Entry may read these fields only while execution
// is quiescent (no concurrent Execute/merge); concurrent introspection must
// go through Manager.EntryMetrics or Manager.EntriesByProfit, which copy
// under the lock. TestEntryMetricsRace audits this under -race.
type Entry struct {
	// Key is the canonical query fingerprint.
	Key string
	// Query is the cached aggregate query block.
	Query *query.Query
	// Value is the aggregate computed over the all-main subjoins. It is
	// never handed out directly; Execute clones it before compensation.
	Value *query.AggTable
	// SnapHigh is the commit watermark the value was computed at.
	SnapHigh txn.TID
	// MainVis captures, per main store, the visibility bit vector at
	// computation time; main compensation diffs it against the current
	// vector to find invalidated rows.
	MainVis map[query.StoreRef]*vec.BitSet
	// MainInv captures each main store's invalidation counter alongside
	// MainVis; an unchanged counter lets main compensation skip the
	// bit-vector comparison entirely (the Fig. 2 dirty check).
	MainInv map[query.StoreRef]uint64
	// Stale marks a join entry whose main stores saw invalidations that
	// cannot be compensated incrementally; it is rebuilt on next access.
	Stale bool
	// mergedDirty marks an entry that was built or rebuilt while an online
	// merge was running on one of its tables: its value and visibility
	// vectors describe the pre-swap store layout, so the merge swap marks
	// it stale instead of applying the staged maintenance fold.
	mergedDirty bool
	// memo is the last fully compensated answer served from this entry,
	// computed at read watermark memoHigh under strategy memoStrat; nil when
	// there is none. It shares keys and index with the served tables
	// copy-on-write. A memo hit serves a clone of it and skips main and
	// delta compensation (Manager.memoServable); it is dropped wherever
	// Value or the stores under it change (dropMemo).
	memo      *query.AggTable
	memoHigh  txn.TID
	memoStrat Strategy
	// tables holds the handles of Query.Tables, in order, resolved once by
	// buildEntry so the per-read checks (memoFresh, entryMergeActive) look
	// nothing up by name. A database never drops a table, so the handles
	// stay valid for the entry's life.
	tables []*table.Table
	// Metrics are the entry's profit metrics.
	Metrics Metrics
}

// mainRefs lists the all-main store references of the entry's query, i.e.
// the stores whose visibility the entry tracks.
func (e *Entry) mainRefs() []query.StoreRef {
	refs := make([]query.StoreRef, 0, len(e.MainVis))
	for r := range e.MainVis {
		refs = append(refs, r)
	}
	return refs
}
