package core

import (
	"fmt"
	"time"

	"aggcache/internal/recycler"
)

// CacheAuditReport is the result of one invariant pass over the aggregate
// cache — the cache half of the /debug/audit payload. Violations is empty
// on a clean pass; each violation is a one-line description precise enough
// to file as a bug.
type CacheAuditReport struct {
	// UnixMS is the pass time.
	UnixMS int64 `json:"unix_ms"`
	// Entries and AccountedBytes are the cache's own bookkeeping;
	// SummedBytes re-derives the footprint from the entries.
	Entries        int    `json:"entries"`
	AccountedBytes uint64 `json:"accounted_bytes"`
	SummedBytes    uint64 `json:"summed_bytes"`
	// Watermark is the commit watermark the pass ran at.
	Watermark uint64 `json:"watermark"`
	// Ghosts is the regret ghost-list population.
	Ghosts int `json:"ghosts"`
	// Violations lists every invariant breach found.
	Violations []string `json:"violations"`
}

// AuditCache walks every cache entry checking the invariants the serving
// path relies on but never re-derives:
//
//   - byte accounting: Manager.bytes == Σ Entry.Metrics.SizeBytes
//   - watermark monotonicity: no entry's SnapHigh exceeds the commit
//     watermark (an entry "from the future" would compensate backwards)
//   - ghost-list sanity: population within capacity, every ghost key
//     reachable through the FIFO, cursor within bounds
//
// The pass holds the database read lock then the cache lock (the Execute
// lock order), so it is safe concurrent with serving but mutually excluded
// with admissions and folds.
func (m *Manager) AuditCache() CacheAuditReport {
	m.db.RLock()
	defer m.db.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	wm := m.db.Txns().Watermark()
	rep := CacheAuditReport{
		UnixMS:         time.Now().UnixMilli(),
		Entries:        len(m.entries),
		AccountedBytes: m.bytes,
		Watermark:      uint64(wm),
		Ghosts:         len(m.ghost),
		Violations:     []string{},
	}
	for _, key := range m.sortedEntryKeys() {
		e := m.entries[key]
		rep.SummedBytes += e.Metrics.SizeBytes
		if e.SnapHigh > wm {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"entry %s: SnapHigh %d ahead of watermark %d", key, e.SnapHigh, wm))
		}
	}
	if rep.SummedBytes != m.bytes {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"byte accounting drift: Manager.bytes=%d, Σ entry SizeBytes=%d",
			m.bytes, rep.SummedBytes))
	}
	if len(m.ghost) > ghostCapacity {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"ghost list over capacity: %d > %d", len(m.ghost), ghostCapacity))
	}
	if len(m.ghost) > 0 {
		// Re-added keys get fresh FIFO slots without clearing their old
		// ones, so stale slots are legal; every live ghost key must still
		// be reachable through some slot or the FIFO can never retire it.
		inFIFO := make(map[string]bool, ghostCapacity)
		for _, k := range m.ghostFIFO.Snapshot() {
			inFIFO[k] = true
		}
		for k := range m.ghost {
			if !inFIFO[k] {
				rep.Violations = append(rep.Violations,
					"ghost key unreachable from FIFO: "+k)
			}
		}
	}
	return rep
}

// AuditRecycler runs the recycler cache's invariant pass at the current
// watermark under the database read lock (guard checks resolve live
// stores). It returns nil when no recycler is configured.
func (m *Manager) AuditRecycler() *recycler.AuditReport {
	if m.rc == nil {
		return nil
	}
	m.db.RLock()
	defer m.db.RUnlock()
	rep := m.rc.Audit(m.db, m.db.Txns().Watermark())
	return &rep
}

// CorruptEntryForVerify deterministically corrupts one cached aggregate
// value — the fault-injection hook behind shadow-verification tests and
// the difftest "corrupt" op. The victim entry is chosen by seed over the
// sorted keys and one of its groups is perturbed (query.AggTable.Perturb) —
// in the cached value and in the entry's result memo, which a memo hit
// serves instead — leaving all bookkeeping untouched so only a result diff
// can catch it.
// It returns the corrupted entry's key, or "" when the cache is empty.
func (m *Manager) CorruptEntryForVerify(seed int64) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := m.sortedEntryKeys()
	if len(keys) == 0 {
		return ""
	}
	if seed < 0 {
		seed = -seed
	}
	key := keys[seed%int64(len(keys))]
	e := m.entries[key]
	e.Value.Perturb(seed)
	if e.memo != nil {
		e.memo.Perturb(seed)
	}
	return key
}
