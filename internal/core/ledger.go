package core

import (
	"sort"
	"time"

	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/recycler"
)

// This file holds the eviction policy and the builders that snapshot a cache
// decision for the observer seam (Manager.decide, obs.go): every admission,
// rejection, hit, miss, rebuild, bypass, compensation, fold, invalidation, and
// eviction is announced with the profit components as they stood at decision
// time, making the profit policy replayable by the shadow-cache advisor
// (internal/advisor). A Decision is a flat value: building one allocates
// nothing (TestLedgerHitPathAllocs asserts the hot path).

// Eviction reasons, carried by the cache.evictions event, the /debug/cache
// payload, and evict-kind ledger decisions.
const (
	// EvictCapacity: the entry was the lowest-profit resident when the cache
	// exceeded CapacityBytes.
	EvictCapacity = "capacity"
	// EvictStale: the victim was already invalidated (stale entries are
	// worthless residents — they evict before any live entry).
	EvictStale = "stale"
	// EvictMinProfit: the victim's profit had decayed below the admission
	// threshold, so capacity pressure removed an entry that would no longer
	// be admitted today.
	EvictMinProfit = "min-profit"
)

// victimLess orders eviction candidates: stale entries go first (their value
// cannot serve another query without a rebuild), then ascending profit, with
// the cache key as a deterministic tiebreak so equal-profit victims are
// chosen identically on every run.
func victimLess(a, b *Entry) bool {
	if a.Stale != b.Stale {
		return a.Stale
	}
	pa, pb := a.Metrics.Profit(), b.Metrics.Profit()
	if pa != pb {
		return pa < pb
	}
	return a.Key < b.Key
}

// evictReason classifies why this victim was chosen.
func evictReason(victim *Entry, minProfit float64) string {
	switch {
	case victim.Stale:
		return EvictStale
	case minProfit > 0 && victim.Metrics.Profit() < minProfit:
		return EvictMinProfit
	default:
		return EvictCapacity
	}
}

// evict removes one entry under capacity pressure, accounting the reason and
// remembering the key in the ghost list for regret detection. Callers hold
// m.mu; gauges are synced by the caller's eviction loop.
func (m *Manager) evict(victim *Entry, reason string) {
	multiple := 1.0
	if m.cfg.CapacityBytes > 0 {
		multiple = float64(m.bytes) / float64(m.cfg.CapacityBytes)
	}
	m.addGhost(victim.Key, ghostInfo{
		size: victim.Metrics.SizeBytes, profit: victim.Metrics.Profit(), multiple: multiple,
	})
	delete(m.entries, victim.Key)
	m.bytes -= victim.Metrics.SizeBytes
	m.Evictions++
	m.evictionsByReason[reason]++
	m.decide(m.entryDecision(obs.DecisionEvict, victim, reason, 0))
}

// ghostCapacity bounds the ghost list of recently evicted keys.
const ghostCapacity = 1024

// ghostInfo remembers what the cache knew about an evicted entry: enough to
// recognize a miss on the key as a capacity regret.
type ghostInfo struct {
	size   uint64
	profit float64
	// multiple is cache-bytes / CapacityBytes at eviction time — the
	// capacity factor at which the entry would have stayed resident.
	multiple float64
}

// addGhost remembers an evicted key in the bounded ghost list (an ARC-style
// shadow of departed entries). Callers hold m.mu.
func (m *Manager) addGhost(key string, g ghostInfo) {
	if m.ghostFIFO == nil {
		m.ghostFIFO = obs.NewRing[string](ghostCapacity)
	}
	if _, dup := m.ghost[key]; !dup {
		if old, evicted := m.ghostFIFO.Push(key); evicted {
			delete(m.ghost, old)
		}
	}
	m.ghost[key] = g
}

// entryDecision snapshots a Decision of the given kind about an entry: its
// profit components and the cache state as they stand, plus the decision's
// own qualifier and row count — when the event log or the ledger will read
// them. Callers hold m.mu.
func (m *Manager) entryDecision(kind obs.DecisionKind, e *Entry, reason string, rows int64) obs.Decision {
	if !m.ev.Enabled() && !m.led.Enabled() {
		// Only the counter listens, and it reads no more than this.
		return obs.Decision{Kind: kind, Reason: reason}
	}
	var age int64
	if !e.Metrics.LastAccess.IsZero() {
		age = int64(time.Since(e.Metrics.LastAccess))
	}
	return obs.Decision{
		Kind:         kind,
		Key:          e.Key,
		Shape:        e.Query.Shape(),
		Reason:       reason,
		Rows:         rows,
		Hits:         e.Metrics.Hits,
		SizeBytes:    e.Metrics.SizeBytes,
		ComputeNS:    int64(e.Metrics.MainExecTime),
		AgeNS:        age,
		Profit:       e.Metrics.Profit(),
		MainRows:     e.Metrics.MainRows,
		DeltaRows:    e.Metrics.DeltaRows,
		CacheBytes:   m.bytes,
		CacheEntries: int64(len(m.entries)),
	}
}

// accessDecision classifies one finished cached-strategy execution — hit,
// bypass, rebuild, or miss — and, when the ledger listens, snapshots the
// entry after the execution accounted its use, so the record reflects what
// the next decision will see. Without a ledger only the kind is read, and
// the cache lock is not taken.
func (m *Manager) accessDecision(q *query.Query, info *ExecInfo) obs.Decision {
	kind := obs.DecisionMiss
	switch {
	case info.CacheHit:
		kind = obs.DecisionHit
	case info.Bypassed:
		kind = obs.DecisionBypass
	case info.Rebuilt:
		kind = obs.DecisionRebuild
	}
	if !m.led.Enabled() {
		return obs.Decision{Kind: kind}
	}
	key := q.Fingerprint()
	m.mu.Lock()
	var d obs.Decision
	if e := m.entries[key]; e != nil {
		d = m.entryDecision(kind, e, "", 0)
	} else {
		// Rejected miss (or an entry already evicted again): no resident
		// entry to snapshot; the reject decision carried the components.
		d = obs.Decision{
			Kind: kind, Key: key, Shape: q.Shape(),
			CacheBytes: m.bytes, CacheEntries: int64(len(m.entries)),
		}
	}
	m.mu.Unlock()
	if info.MemoHit {
		d.Reason = "memo"
	}
	d.Strategy = info.Strategy.String()
	d.ServeNS = int64(info.Total)
	d.RegretX = info.Regret
	return d
}

// recycled announces one recycler decision — hit/top-up at plan time,
// admission at job completion. Recycler kinds reach only the ledger, so
// without one nothing is built. Key is the query fingerprint with the combo
// in Reason, mirroring the subjoin event attributes; rows carries the
// top-up row count (topup) or the execution cost (admit). Recycler records
// intentionally leave CacheBytes/CacheEntries zero: those canonical fields
// snapshot the aggregate cache, which recycler decisions do not touch, and
// the manager lock is not held here. Announced on the coordinating goroutine
// in plan/job order, so the ledger stays byte-identical across worker
// counts.
func (m *Manager) recycled(kind obs.DecisionKind, q *query.Query, strat Strategy, combo query.Combo, rows int64, size uint64) {
	if !m.led.Enabled() {
		return
	}
	m.decide(obs.Decision{
		Kind:      kind,
		Key:       q.Fingerprint(),
		Shape:     q.Shape(),
		Strategy:  strat.String(),
		Reason:    combo.String(),
		Rows:      rows,
		SizeBytes: size,
	})
}

// recycleEvicted announces recycler evictions (capacity pressure or
// invalidation): the note's key is the full partial key (fingerprint plus
// store assignment). q may be nil when the eviction comes from a merge
// hook's InvalidateTable rather than a query.
func (m *Manager) recycleEvicted(q *query.Query, strat Strategy, notes []recycler.EvictionNote) {
	if !m.led.Enabled() {
		return
	}
	for _, n := range notes {
		d := obs.Decision{
			Kind:      obs.DecisionRecycleEvict,
			Key:       n.Key,
			Reason:    n.Reason,
			Hits:      n.Hits,
			SizeBytes: n.Size,
			MainRows:  n.CostRows,
		}
		if q != nil {
			d.Shape = q.Shape()
			d.Strategy = strat.String()
		}
		m.decide(d)
	}
}

// recycleInvalidate drops every recycled intermediate guarded by the named
// table's stores and records the evictions. Called by the merge hooks at
// the points where the table's store identities change (merge swap and
// abort).
func (m *Manager) recycleInvalidate(name string) {
	if m.rc == nil {
		return
	}
	m.recycleEvicted(nil, 0, m.rc.InvalidateTable(name))
}

// sortedEntryKeys lists the cache keys in lexical order. The merge hooks
// iterate it instead of the entries map so their per-entry maintenance
// decisions land in the ledger in a deterministic order — part of the
// byte-identical-ledger guarantee the differential harness checks. Callers
// hold m.mu.
func (m *Manager) sortedEntryKeys() []string {
	keys := make([]string, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Ledger returns the decision ledger this manager records into; nil when
// disabled.
func (m *Manager) Ledger() *obs.Ledger { return m.led }

// CacheDebug is the /debug/cache and \cache introspection payload: cache
// configuration and footprint, eviction accounting by reason, ledger
// position, and every entry's metrics in eviction order.
type CacheDebug struct {
	CapacityBytes     uint64           `json:"capacity_bytes"`
	MinProfit         float64          `json:"min_profit"`
	Bytes             uint64           `json:"bytes"`
	Entries           int              `json:"entries"`
	Evictions         int64            `json:"evictions"`
	EvictionsByReason map[string]int64 `json:"evictions_by_reason"`
	RegretGhosts      int              `json:"regret_ghosts"`
	LedgerSeq         int64            `json:"ledger_seq"`
	LedgerLen         int              `json:"ledger_len"`
	ByProfit          []EntrySnapshot  `json:"by_profit"`
}

// CacheDebug snapshots the cache state for introspection endpoints.
func (m *Manager) CacheDebug() CacheDebug {
	by := m.EntriesByProfit()
	m.mu.Lock()
	defer m.mu.Unlock()
	reasons := make(map[string]int64, len(m.evictionsByReason))
	for r, n := range m.evictionsByReason {
		reasons[r] = n
	}
	return CacheDebug{
		CapacityBytes:     m.cfg.CapacityBytes,
		MinProfit:         m.cfg.MinProfit,
		Bytes:             m.bytes,
		Entries:           len(m.entries),
		Evictions:         m.Evictions,
		EvictionsByReason: reasons,
		RegretGhosts:      len(m.ghost),
		LedgerSeq:         m.led.Seq(),
		LedgerLen:         m.led.Len(),
		ByProfit:          by,
	}
}

// EvictionsByReason copies the per-reason eviction counts.
func (m *Manager) EvictionsByReason() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.evictionsByReason))
	for r, n := range m.evictionsByReason {
		out[r] = n
	}
	return out
}
