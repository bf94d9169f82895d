package core

import "aggcache/internal/query"

// MainCompensateForBench runs main compensation of q's cached entry as a
// cache hit does — persisting, at the current read snapshot, under the
// database read lock and the cache lock — and returns the number of rows
// it found. BenchmarkMainCompensation times it.
func (m *Manager) MainCompensateForBench(q *query.Query) int {
	m.db.RLock()
	defer m.db.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	var st query.Stats
	return m.mainCompensate(m.entries[q.Fingerprint()], m.db.Txns().ReadSnapshot(), &st, nil, compPersist)
}
