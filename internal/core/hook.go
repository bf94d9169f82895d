package core

import (
	"log/slog"

	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/table"
	"aggcache/internal/txn"
)

// mergeHook keeps cache entries consistent across delta-merge operations:
// the incremental maintenance of the aggregate cache happens during the
// merge (paper Sec. 5.2), through the staged protocol of table.MergeHook.
// FoldOnline settles every affected entry to the merge baseline S0 and
// pre-computes the delta fold into a staged table while queries keep running
// (the entry is frozen at S0 from prepare to swap — query-time compensation
// turns transient, see Manager.prepare); SwapOnline applies the staged folds
// and installs the new main's baseline inside the swap critical section;
// AbortOnline discards the staging.
type mergeHook struct {
	m *Manager
}

var _ table.MergeHook = (*mergeHook)(nil)

// FoldOnline runs during the merge's build phase under the shared reader
// lock: it settles every affected entry to the merge baseline S0 and stages
// the fold of the frozen delta for the swap. Only the settling holds
// the cache lock; the fold subjoins — the expensive part — run unlocked and
// accumulate into private tables, so concurrent cache hits proceed.
func (h *mergeHook) FoldOnline(db *table.DB, tbl *table.Table, part int, snap txn.Snapshot) {
	m := h.m
	name := tbl.Name()
	type foldJob struct {
		key    string
		e      *Entry
		combos []query.Combo
	}
	var jobs []foldJob
	m.mu.Lock()
	for _, key := range m.sortedEntryKeys() {
		e := m.entries[key]
		if e.Stale || e.mergedDirty || !queryReferences(e.Query, name) {
			continue
		}
		// Merges whose folds coexist on one entry must share a baseline
		// (MergeTablesOnline freezes its group at one snapshot); a fold
		// staged at a different snapshot cannot survive this one.
		if e.SnapHigh != snap.High && m.entryHasPendingFold(key) {
			m.dropPendingFolds(key)
			m.markStale(e, "overlapping online merges at different snapshots")
			continue
		}
		var st query.Stats
		m.mainCompensate(e, snap, &st, nil, compSettle)
		if e.Stale {
			continue
		}
		jobs = append(jobs, foldJob{key: key, e: e, combos: m.mergeFoldCombos(e.Query, name, part)})
	}
	m.foldedActive[name] = true
	m.mu.Unlock()

	pf := &pendingFold{
		folds:  make(map[string]*query.AggTable, len(jobs)),
		tuples: make(map[string]int64, len(jobs)),
	}
	for _, j := range jobs {
		foldC := query.NewAggTable(j.e.Query.Aggs)
		var st query.Stats
		if err := m.runCombos(j.e.Query, j.combos, snap, CachedFullPruning, false, foldC, &st, nil); err != nil {
			m.mu.Lock()
			m.markStale(j.e, "merge-time delta fold failed: "+err.Error())
			m.mu.Unlock()
			continue
		}
		pf.folds[j.key] = foldC
		pf.tuples[j.key] = st.TuplesJoined
		m.obs.recordStats(&st)
	}
	m.mu.Lock()
	m.pendingFolds[foldKey{table: name, part: part}] = pf
	m.mu.Unlock()
}

// SwapOnline applies the staged folds inside the swap critical section: the
// new main is already installed but its invalidation log not yet replayed,
// so its pre-rendered base visibility is exactly the merge baseline S0 the
// entries were settled to. Entries built during the merge describe the old
// store layout and are marked stale instead.
func (h *mergeHook) SwapOnline(db *table.DB, tbl *table.Table, part int, snap txn.Snapshot) {
	m := h.m
	// The swap replaces the partition's stores (delta folds into a new
	// main, delta2 becomes the delta). Recycled intermediates stayed
	// servable through the whole build phase — the frozen stores kept
	// their identity — but die here. The pointer guards would catch every
	// reuse attempt anyway; dropping now frees the bytes and records the
	// invalidations deterministically.
	m.recycleInvalidate(tbl.Name())
	m.mu.Lock()
	defer m.mu.Unlock()
	name := tbl.Name()
	fk := foldKey{table: name, part: part}
	pf := m.pendingFolds[fk]
	delete(m.pendingFolds, fk)
	delete(m.foldedActive, name)
	ref := query.StoreRef{Table: name, Part: part, Main: true}
	base := ref.Resolve(db).MergeBaseVisibility()
	for _, key := range m.sortedEntryKeys() {
		e := m.entries[key]
		if !queryReferences(e.Query, name) {
			continue
		}
		// The swap replaces the stores under the entry and the fold below
		// changes its value.
		e.dropMemo()
		if e.Stale {
			e.mergedDirty = false
			continue
		}
		if e.mergedDirty {
			e.mergedDirty = false
			m.markStale(e, "entry built during online merge")
			continue
		}
		var fold *query.AggTable
		if pf != nil {
			fold = pf.folds[key]
		}
		if fold == nil {
			// No staged fold (e.g. the entry appeared between fold and
			// swap): rebuild on next access rather than guessing.
			m.markStale(e, "no staged fold for online merge")
			continue
		}
		e.Value.Merge(fold)
		e.MainVis[ref] = base.Clone()
		e.MainInv[ref] = 0
		m.folded(e, name, snap, pf.tuples[key])
	}
	m.syncGauges()
}

// folded accounts one merge-time maintenance fold already applied to the
// entry's value — tuples delta tuples of the merging table now covered by
// the main stores as of snap — and announces it. Callers hold m.mu.
func (m *Manager) folded(e *Entry, table string, snap txn.Snapshot, tuples int64) {
	m.resize(e)
	e.Metrics.MainRows += tuples
	e.Metrics.Maintenances++
	e.SnapHigh = snap.High
	m.decide(m.entryDecision(obs.DecisionFold, e, "online", tuples), slog.String("table", table))
}

// AbortOnline discards the staging of a rolled-back online merge. The store
// layout queries observe is unchanged by a rollback, so settled entries stay
// valid as they are; only folds that assumed this table's delta was about to
// merge must go.
func (h *mergeHook) AbortOnline(db *table.DB, tbl *table.Table, part int) {
	m := h.m
	// Conservative: the rollback leaves the frozen stores in place, but
	// delta2's fate is the merge machinery's business — drop anything
	// guarded by this table rather than reason about it.
	m.recycleInvalidate(tbl.Name())
	m.mu.Lock()
	defer m.mu.Unlock()
	name := tbl.Name()
	delete(m.pendingFolds, foldKey{table: name, part: part})
	delete(m.foldedActive, name)
	// Folds staged for other, still-running merges may have counted this
	// table's frozen delta as about-to-merge (the cross-term telescoping in
	// mergeFoldCombos); applying them now would double-count those rows.
	// Walk entries in key order so the resulting invalidation decisions land
	// in the ledger deterministically.
	for _, key := range m.sortedEntryKeys() {
		e := m.entries[key]
		if !queryReferences(e.Query, name) {
			continue
		}
		dropped := false
		for _, pf := range m.pendingFolds {
			if _, ok := pf.folds[key]; ok {
				delete(pf.folds, key)
				delete(pf.tuples, key)
				dropped = true
			}
		}
		if dropped && !e.Stale {
			m.markStale(e, "concurrent online merge aborted")
		}
	}
	// Entries built during the aborted merge still describe the live store
	// layout; unflag them unless another referenced table is still merging.
	for _, e := range m.entries {
		if e.mergedDirty && queryReferences(e.Query, name) && !m.entryMergeActive(e) {
			e.mergedDirty = false
		}
	}
}

// entryHasPendingFold reports whether any staged fold references the entry.
// Callers hold m.mu.
func (m *Manager) entryHasPendingFold(key string) bool {
	for _, pf := range m.pendingFolds {
		if _, ok := pf.folds[key]; ok {
			return true
		}
	}
	return false
}

// dropPendingFolds removes the entry from every staged fold. Callers hold
// m.mu.
func (m *Manager) dropPendingFolds(key string) {
	for _, pf := range m.pendingFolds {
		delete(pf.folds, key)
		delete(pf.tuples, key)
	}
}

func queryReferences(q *query.Query, tableName string) bool {
	for _, t := range q.Tables {
		if t == tableName {
			return true
		}
	}
	return false
}

// mergeFoldCombos selects the subjoins that fold one partition's delta into
// an entry: the merging table pinned to that delta store, every other table
// ranging over its main stores. A simultaneously-merging table whose own
// fold is already staged additionally contributes its frozen delta: that
// delta lands in its main together with ours, and the delta×delta cross
// terms belong to exactly one fold — the later one. Filtering AllCombos
// keeps its enumeration order.
func (m *Manager) mergeFoldCombos(q *query.Query, mergingTable string, part int) []query.Combo {
	folds := func(ref query.StoreRef) bool {
		switch {
		case ref.Table == mergingTable:
			return ref == query.StoreRef{Table: mergingTable, Part: part}
		case ref.Main:
			return true
		case ref.D2:
			return false
		}
		return m.foldedActive[ref.Table] && m.db.MustTable(ref.Table).Partition(ref.Part).MergeActive()
	}
	var out []query.Combo
next:
	for _, c := range query.AllCombos(m.db, q) {
		for _, ref := range c {
			if !folds(ref) {
				continue next
			}
		}
		out = append(out, c)
	}
	return out
}
