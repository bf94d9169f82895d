// Package recycler implements the second-level cache of join-processing
// intermediates: materialized subjoin aggregate partials and store-side join
// builds, reused across queries and across successive delta
// compensations of the same query.
//
// The aggregate cache (internal/core) only reuses each entry's final
// all-main aggregate; every delta compensation still re-executes the 2^t−1
// delta-involving subjoins from scratch. The recycler keeps those subjoin
// partials keyed by a canonical fingerprint of (query fingerprint — tables,
// predicates, group keys — plus the combo's main/delta store assignment) and
// the tid-watermark they were computed at. A later execution of the same
// subjoin at the same watermark is served without scanning a row; at a newer
// watermark the partial is topped up by scanning only the rows that became
// visible in (old, new] — the watermark-prefix reuse that bends the curve
// exactly where matching-dependency tid-range pruning fails (overlapping tid
// ranges).
//
// Correctness model. A partial is guarded by the identity of every physical
// store of its combo (pointer) plus each store's invalidation counter, and
// remembers the snapshot watermark it is valid at. MVCC visibility at a
// fixed watermark never changes, and with no invalidations recorded since
// admission visibility is monotone non-decreasing in the watermark — except
// for rows whose invalidating transaction was already registered (bumping
// the counter) before admission and committed into the window since. Lookup
// therefore re-renders both the old and the new visibility and diffs them
// both ways: rows added per store become top-up terms (the 2^c−1 non-empty
// combinations of added-vs-old row sets across the c changed stores, all
// additive), while any removed row drops the entry. Admission and eviction
// follow the aggregate cache's deterministic profit model with row-based
// costs, so decisions — and the decision ledger — are byte-identical at
// every worker count.
//
// Build tables are a second, independent pool: a cached build-side hash
// table is served only when the requesting scan's candidate row set is
// byte-identical to the cached one (equal rows imply equal keys, since
// column values at fixed rows are immutable). Builds are acquired from
// worker goroutines, so this pool keeps no ledger records and no Stats —
// reuse can never change results, only skip gather+build work.
package recycler

import (
	"log/slog"
	"sort"
	"strconv"
	"sync"

	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/table"
	"aggcache/internal/txn"
	"aggcache/internal/vec"
)

// Config parameterizes a Cache.
type Config struct {
	// CapacityBytes bounds the subjoin-partial pool; 0 means unlimited.
	CapacityBytes uint64
	// BuildCapacityBytes bounds the build-table pool; 0 means unlimited.
	BuildCapacityBytes uint64
	// MinProfit rejects partials whose profit at admission falls below it.
	MinProfit float64
	// Metrics receives recycler counters/gauges; nil uses obs.Default().
	Metrics *obs.Registry
	// Events receives admission/eviction/invalidation events; nil disables.
	Events *obs.EventLog
}

// Cache is the recycler. One instance serves one Manager; all partial-pool
// methods are called on the manager's coordinating goroutine (plan loop and
// job-completion fold), AcquireBuild additionally from pool workers.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry
	bytes   uint64
	keyBuf  []byte
	// local tallies for the debug payload (counters live in the registry)
	hits, misses, topups, bypasses, evictions, invalidations int64

	bmu                        sync.Mutex
	builds                     map[string]*buildEntry
	buildBytes                 uint64
	bKeyBuf                    []byte
	buildSeq                   int64
	bHits, bMisses, bEvictions int64

	cHits, cMisses, cTopups, cBypasses  *obs.Counter
	cTopupRows, cAdmits, cEvicts, cInvs *obs.Counter
	cBuildHits, cBuildMisses            *obs.Counter
	gBytes, gEntries                    *obs.Gauge
	gBuildBytes, gBuildEntries          *obs.Gauge
}

// New creates a recycler cache.
func New(cfg Config) *Cache {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	return &Cache{
		cfg:           cfg,
		entries:       make(map[string]*entry),
		builds:        make(map[string]*buildEntry),
		cHits:         reg.Counter("recycler.hits"),
		cMisses:       reg.Counter("recycler.misses"),
		cTopups:       reg.Counter("recycler.topups"),
		cBypasses:     reg.Counter("recycler.bypasses"),
		cTopupRows:    reg.Counter("recycler.topup_rows"),
		cAdmits:       reg.Counter("recycler.admissions"),
		cEvicts:       reg.Counter("recycler.evictions"),
		cInvs:         reg.Counter("recycler.invalidations"),
		cBuildHits:    reg.Counter("recycler.build_hits"),
		cBuildMisses:  reg.Counter("recycler.build_misses"),
		gBytes:        reg.Gauge("recycler.bytes"),
		gEntries:      reg.Gauge("recycler.entries"),
		gBuildBytes:   reg.Gauge("recycler.build_bytes"),
		gBuildEntries: reg.Gauge("recycler.build_entries"),
	}
}

// Config returns the settings the cache was built with — the template a
// sharded deployment builds each shard's own recycler from.
func (c *Cache) Config() Config { return c.cfg }

// guard pins one physical store of the entry's combo: the pointer (swaps,
// merges, and aging replace stores) and the invalidation counter at
// admission (any invalidation registered since may remove visibility).
type guard struct {
	ref   query.StoreRef
	store *table.Store
	inv   uint64
}

// entry is one cached subjoin partial.
type entry struct {
	key      string
	value    *query.AggTable // immutable once installed
	snapHigh txn.TID         // watermark the value is exact at
	guards   []guard
	hits     int64
	topups   int64
	costRows int64 // rows scanned + tuples joined across all executions folded in
	size     uint64
}

// profit mirrors the aggregate cache's benefit model with the deterministic
// row-based cost: saved work times demand over footprint. No wall-clock
// term, so eviction order is identical across runs and worker counts.
func (e *entry) profit() float64 {
	return float64(e.costRows) * float64(e.hits+1) / float64(e.size+1)
}

func entrySize(key string, value *query.AggTable, guards []guard) uint64 {
	const guardOverhead = 48
	return value.MemBytes() + uint64(len(key)) + uint64(len(guards))*guardOverhead
}

// VerdictKind classifies a Lookup outcome.
type VerdictKind uint8

const (
	// Miss: no reusable partial; the subjoin executes fresh and the result
	// is offered for admission.
	Miss VerdictKind = iota
	// Hit: exact watermark match (or no visible change since) — the cached
	// partial is the subjoin's result; nothing executes.
	Hit
	// Topup: the partial seeds the result and only rows newly visible
	// since its watermark are scanned.
	Topup
	// Bypass: an entry exists but cannot serve this snapshot (older
	// watermark than the entry, or an in-transaction snapshot); the
	// subjoin executes fresh and is not admitted.
	Bypass
)

// Verdict is the outcome of a Lookup.
type Verdict struct {
	Kind  VerdictKind
	Value *query.AggTable // Hit/Topup: read-only seed
	Terms [][]*vec.BitSet // Topup: restrict terms, plan order
	// NewRows is the number of rows that became visible since the entry's
	// watermark (Topup only) — surfaced as a span attribute.
	NewRows int64
	// Invalidated reports that a stale entry was dropped by this lookup
	// (guard mismatch or retroactively removed visibility).
	Invalidated bool
	// Evicted carries the dropped entry when Invalidated (for the ledger).
	Evicted []EvictionNote
}

// EvictionNote describes one dropped entry for the manager's ledger.
type EvictionNote struct {
	Key      string
	Reason   string // "capacity", "min-profit", "invalidated"
	Size     uint64
	Hits     int64
	CostRows int64
}

// Outcome reports what Complete did, for the manager's ledger/events.
type Outcome struct {
	Admitted  bool
	Installed bool // a top-up result replaced the entry's value
	Size      uint64
	Profit    float64
	Evicted   []EvictionNote
}

// appendComboKey renders the canonical entry key: the query fingerprint
// (tables, predicates, group keys) plus each table's store assignment.
// Pushdown tid-range extras are deliberately excluded — they are derived,
// join-result-preserving filters, so the subjoin result is identical with
// or without them.
func appendComboKey(buf []byte, qfp string, combo query.Combo) []byte {
	buf = append(buf[:0], qfp...)
	for _, r := range combo {
		buf = append(buf, '|')
		buf = append(buf, r.Table...)
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(r.Part), 10)
		buf = append(buf, ']')
		switch {
		case r.Main:
			buf = append(buf, 'm')
		case r.D2:
			buf = append(buf, '2')
		default:
			buf = append(buf, 'd')
		}
	}
	return buf
}

// Lookup consults the partial pool for one subjoin. It must be called from
// the manager's plan loop (single goroutine) with a read-pinned snapshot
// (snap.Self == 0): in-transaction snapshots see their own uncommitted
// writes, which the watermark keying cannot represent. The exact-hit path
// is allocation-free.
func (c *Cache) Lookup(q *query.Query, combo query.Combo, snap txn.Snapshot, db *table.DB) Verdict {
	if snap.Self != 0 {
		return Verdict{Kind: Bypass}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keyBuf = appendComboKey(c.keyBuf, q.Fingerprint(), combo)
	e := c.entries[string(c.keyBuf)]
	if e == nil {
		c.misses++
		c.cMisses.Inc()
		return Verdict{Kind: Miss}
	}
	// Guard check: any store swapped out or invalidated since admission
	// drops the entry. Pointer first — a finished merge nils delta2, so
	// Resolve may return a different (even nil) store.
	for i := range e.guards {
		g := &e.guards[i]
		if st := g.ref.Resolve(db); st != g.store || st.Invalidations() != g.inv {
			note := c.dropLocked(e, "invalidated")
			c.misses++
			c.cMisses.Inc()
			return Verdict{Kind: Miss, Invalidated: true, Evicted: []EvictionNote{note}}
		}
	}
	if snap.High == e.snapHigh {
		e.hits++
		c.hits++
		c.cHits.Inc()
		return Verdict{Kind: Hit, Value: e.value}
	}
	if snap.High < e.snapHigh {
		// A pinned reader behind the entry's watermark: the partial may
		// include rows this snapshot must not see. Execute fresh, keep the
		// newer entry.
		c.bypasses++
		c.cBypasses.Inc()
		return Verdict{Kind: Bypass}
	}

	// Watermark advanced: diff each store's visibility between the entry's
	// watermark and now. Visibility at a fixed watermark is stable, so the
	// old set is re-rendered on demand instead of stored.
	old := txn.Snapshot{High: e.snapHigh}
	var added []*vec.BitSet // aligned with combo; nil = unchanged
	var olds []*vec.BitSet
	var changed []int
	var newRows int64
	for i := range e.guards {
		st := e.guards[i].store
		curVis := st.Visibility(snap)
		oldVis := st.Visibility(old)
		if removed := oldVis.AndNot(curVis); removed.Count() != 0 {
			// A row lost visibility inside the window (its invalidating
			// transaction predated admission and committed since): the
			// additive top-up cannot express subtraction — drop.
			note := c.dropLocked(e, "invalidated")
			c.misses++
			c.cMisses.Inc()
			return Verdict{Kind: Miss, Invalidated: true, Evicted: []EvictionNote{note}}
		}
		diff := curVis.AndNot(oldVis)
		n := diff.Count()
		if added == nil {
			added = make([]*vec.BitSet, len(e.guards))
			olds = make([]*vec.BitSet, len(e.guards))
		}
		if n != 0 {
			added[i] = diff
			olds[i] = oldVis
			changed = append(changed, i)
			newRows += int64(n)
		}
	}
	if len(changed) == 0 {
		// Nothing became visible: the partial is exact at the new
		// watermark too. Advance so the next lookup takes the
		// allocation-free path.
		e.snapHigh = snap.High
		e.hits++
		c.hits++
		c.cHits.Inc()
		return Verdict{Kind: Hit, Value: e.value}
	}

	// Decompose new-visibility × old-visibility across the c changed
	// stores into the 2^c−1 terms that involve at least one added row set;
	// the all-old term is the seed. Ascending bitmask order fixes the fold
	// order, keeping results and Stats deterministic.
	terms := make([][]*vec.BitSet, 0, 1<<len(changed)-1)
	for mask := 1; mask < 1<<len(changed); mask++ {
		restrict := make([]*vec.BitSet, len(combo))
		for bit, pos := range changed {
			if mask&(1<<bit) != 0 {
				restrict[pos] = added[pos]
			} else {
				restrict[pos] = olds[pos]
			}
		}
		terms = append(terms, restrict)
	}
	e.hits++
	e.topups++
	c.topups++
	c.cTopups.Inc()
	c.cTopupRows.Add(newRows)
	return Verdict{Kind: Topup, Value: e.value, Terms: terms, NewRows: newRows}
}

// Complete folds an executed subjoin back into the pool: a fresh miss
// result is offered for admission, a top-up result replaces its entry's
// value at the new watermark. sub is only read during the call — the
// manager passes the executor's pooled job partial, which a later job
// reuses — so Complete stores a Clone, and only when it keeps the result.
// costRows is the execution's deterministic cost (rows scanned + tuples
// joined). Called in job-index order on the coordinating goroutine, so
// admissions and evictions replay identically at every worker count.
func (c *Cache) Complete(q *query.Query, combo query.Combo, snap txn.Snapshot, db *table.DB, sub *query.AggTable, costRows int64, topup bool) Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keyBuf = appendComboKey(c.keyBuf, q.Fingerprint(), combo)
	if e := c.entries[string(c.keyBuf)]; e != nil && topup {
		// Install the topped-up value; guards are unchanged (no writer can
		// run during the execution — the manager holds the DB read lock).
		c.bytes -= e.size
		e.value = sub.Clone()
		e.snapHigh = snap.High
		e.costRows += costRows
		e.size = entrySize(e.key, e.value, e.guards)
		c.bytes += e.size
		out := Outcome{Installed: true, Size: e.size, Profit: e.profit()}
		out.Evicted = c.evictOverCapacityLocked()
		c.syncGaugesLocked()
		return out
	}
	if costRows <= 0 {
		return Outcome{}
	}
	key := string(c.keyBuf)
	guards := make([]guard, len(combo))
	for i, ref := range combo {
		st := ref.Resolve(db)
		guards[i] = guard{ref: ref, store: st, inv: st.Invalidations()}
	}
	e := &entry{
		key:      key,
		snapHigh: snap.High,
		guards:   guards,
		costRows: costRows,
	}
	e.size = entrySize(key, sub, guards)
	if e.profit() < c.cfg.MinProfit {
		return Outcome{}
	}
	if old := c.entries[key]; old != nil {
		// Racing re-admission of a bypassed subjoin — keep the existing
		// entry (it is at a newer or equal watermark).
		return Outcome{}
	}
	e.value = sub.Clone()
	c.entries[key] = e
	c.bytes += e.size
	c.cAdmits.Inc()
	out := Outcome{Admitted: true, Size: e.size, Profit: e.profit()}
	out.Evicted = c.evictOverCapacityLocked()
	c.syncGaugesLocked()
	if c.cfg.Events.Enabled() {
		c.cfg.Events.Emit("recycler.admit",
			slog.String("key", key), slog.Uint64("bytes", e.size),
			slog.Int64("cost_rows", costRows))
	}
	return out
}

// dropLocked removes an entry and returns its eviction note.
func (c *Cache) dropLocked(e *entry, reason string) EvictionNote {
	delete(c.entries, e.key)
	c.bytes -= e.size
	c.evictions++
	if reason == "invalidated" {
		c.invalidations++
		c.cInvs.Inc()
	}
	c.cEvicts.Inc()
	c.syncGaugesLocked()
	if c.cfg.Events.Enabled() {
		c.cfg.Events.Emit("recycler.evict",
			slog.String("key", e.key), slog.String("reason", reason),
			slog.Uint64("bytes", e.size))
	}
	return EvictionNote{Key: e.key, Reason: reason, Size: e.size, Hits: e.hits, CostRows: e.costRows}
}

// evictOverCapacityLocked evicts lowest-profit entries (key order breaking
// ties) until the pool fits its budget.
func (c *Cache) evictOverCapacityLocked() []EvictionNote {
	if c.cfg.CapacityBytes == 0 || c.bytes <= c.cfg.CapacityBytes {
		return nil
	}
	victims := make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		victims = append(victims, e)
	}
	sort.Slice(victims, func(i, j int) bool {
		pi, pj := victims[i].profit(), victims[j].profit()
		if pi != pj {
			return pi < pj
		}
		return victims[i].key < victims[j].key
	})
	var notes []EvictionNote
	for _, e := range victims {
		if c.bytes <= c.cfg.CapacityBytes {
			break
		}
		notes = append(notes, c.dropLocked(e, "capacity"))
	}
	return notes
}

// InvalidateTable drops every partial and build table guarded by one of the
// named table's stores. The merge hook calls it at swap and abort, so
// reuse never crosses a store swap; the lazy guards would catch it anyway,
// but proactive dropping frees the bytes at the moment they become dead.
// Returns eviction notes in key order for the manager's ledger.
func (c *Cache) InvalidateTable(name string) []EvictionNote {
	c.mu.Lock()
	var keys []string
	for k, e := range c.entries {
		for i := range e.guards {
			if e.guards[i].ref.Table == name {
				keys = append(keys, k)
				break
			}
		}
	}
	sort.Strings(keys)
	notes := make([]EvictionNote, 0, len(keys))
	for _, k := range keys {
		notes = append(notes, c.dropLocked(c.entries[k], "invalidated"))
	}
	c.mu.Unlock()

	c.bmu.Lock()
	for k, b := range c.builds {
		if b.table == name {
			delete(c.builds, k)
			c.buildBytes -= b.size
			c.bEvictions++
		}
	}
	c.gBuildBytes.Set(int64(c.buildBytes))
	c.gBuildEntries.Set(int64(len(c.builds)))
	c.bmu.Unlock()
	return notes
}

func (c *Cache) syncGaugesLocked() {
	c.gBytes.Set(int64(c.bytes))
	c.gEntries.Set(int64(len(c.entries)))
}
