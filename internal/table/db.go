package table

import (
	"fmt"
	"sync"

	"aggcache/internal/obs"
	"aggcache/internal/txn"
)

// MergeHook observes online rebuilds: delta merges and AgeOnline, which is
// the same rebuild with a moved boundary. The aggregate cache registers one
// to maintain its entries incrementally during the merge (paper Sec. 5.2).
// Per member (table, partition) of a rebuild a hook sees FoldOnline then
// exactly one of SwapOnline or AbortOnline; all members of one rebuild
// share the snapshot S0, fold one after another and swap in one critical
// section. A rebuild rolled back before its build phase folded (a prepare
// or build failure, a staged merge aborted before Build) sends a bare
// AbortOnline per member. A swap never arrives without its fold.
//
//   - FoldOnline runs during the build phase under the shared reader lock,
//     with the frozen old main+delta still serving queries; the hook
//     pre-computes its maintenance delta (e.g. the fold of the frozen delta
//     into cached aggregates) against the merge snapshot without blocking
//     anyone.
//   - SwapOnline runs inside the swap critical section (writer lock held),
//     after every member's new main and delta are installed (and a pending
//     boundary moved) but before the invalidation logs are replayed, so
//     baselines captured here observe the merge snapshot exactly.
//   - AbortOnline runs (writer lock held) after a merge rolled back; the
//     hook discards whatever FoldOnline staged. The store layout observable
//     by queries is unchanged by a rollback.
type MergeHook interface {
	FoldOnline(db *DB, tbl *Table, part int, snap txn.Snapshot)
	SwapOnline(db *DB, tbl *Table, part int, snap txn.Snapshot)
	AbortOnline(db *DB, tbl *Table, part int)
}

// DB is the database container: a transaction manager, a set of tables,
// merge observers, and the coarse reader/writer lock that defines the
// engine's concurrency contract (mutations and merges exclusive, query
// execution shared).
type DB struct {
	mu     sync.RWMutex
	txns   *txn.Manager
	tables map[string]*Table
	order  []string
	hooks  []MergeHook
	mobs   mergeObs
	ev     *obs.EventLog
	faults *Faults
}

// mergeObs holds the storage layer's merge metric handles, resolved once at
// Open (or SetMetrics) so merges update them with plain atomics.
type mergeObs struct {
	merges       *obs.Counter   // table.merges — delta merges completed
	fromMain     *obs.Counter   // table.merge_rows_from_main
	fromDelta    *obs.Counter   // table.merge_rows_from_delta
	dropped      *obs.Counter   // table.merge_rows_dropped
	latency      *obs.Histogram // latency.merge — per-partition merge wall clock
	onlineActive *obs.Gauge     // merge.online_active — online merges in flight
	swapLatency  *obs.Histogram // latency.merge_swap — swap critical section (merge.swap_ns)
	delta2Rows   *obs.Counter   // merge.delta2_rows — rows coalesced while merging
}

func newMergeObs(reg *obs.Registry) mergeObs {
	return mergeObs{
		merges:       reg.Counter("table.merges"),
		fromMain:     reg.Counter("table.merge_rows_from_main"),
		fromDelta:    reg.Counter("table.merge_rows_from_delta"),
		dropped:      reg.Counter("table.merge_rows_dropped"),
		latency:      reg.Histogram("latency.merge"),
		onlineActive: reg.Gauge("merge.online_active"),
		swapLatency:  reg.Histogram("latency.merge_swap"),
		delta2Rows:   reg.Counter("merge.delta2_rows"),
	}
}

// Open returns an empty database reporting into the default observability
// registry and the process-wide event log.
func Open() *DB {
	return &DB{
		txns:   txn.NewManager(),
		tables: make(map[string]*Table),
		mobs:   newMergeObs(obs.Default()),
		ev:     obs.Events(),
	}
}

// SetMetrics redirects the database's storage-layer metrics (merge counters
// and latency) into reg. Call before concurrent use.
func (db *DB) SetMetrics(reg *obs.Registry) { db.mobs = newMergeObs(reg) }

// SetEvents redirects the database's merge lifecycle events into ev (nil
// disables them). Call before concurrent use.
func (db *DB) SetEvents(ev *obs.EventLog) { db.ev = ev }

// Txns returns the transaction manager.
func (db *DB) Txns() *txn.Manager { return db.txns }

// Create adds a single-partition table.
func (db *DB) Create(schema Schema) (*Table, error) {
	t, err := New(schema)
	if err != nil {
		return nil, err
	}
	return t, db.register(t)
}

// CreatePartitioned adds a range-partitioned (e.g. hot/cold) table.
func (db *DB) CreatePartitioned(schema Schema, routeCol string, ranges []RangePartition) (*Table, error) {
	t, err := NewPartitioned(schema, routeCol, ranges)
	if err != nil {
		return nil, err
	}
	return t, db.register(t)
}

func (db *DB) register(t *Table) error {
	if _, ok := db.tables[t.Name()]; ok {
		return fmt.Errorf("table %s already exists", t.Name())
	}
	t.faults = db.faults
	t.txns = db.txns
	db.tables[t.Name()] = t
	db.order = append(db.order, t.Name())
	return nil
}

// MergeActive reports whether any partition of the named table has an
// online merge in flight (Table.MergeActive); false for an unknown table.
func (db *DB) MergeActive(tableName string) bool {
	t := db.tables[tableName]
	return t != nil && t.MergeActive()
}

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// MustTable returns a table by name, panicking if absent.
func (db *DB) MustTable(name string) *Table {
	t := db.tables[name]
	if t == nil {
		panic(fmt.Sprintf("table %s does not exist", name))
	}
	return t
}

// TableNames lists tables in creation order.
func (db *DB) TableNames() []string { return append([]string(nil), db.order...) }

// RegisterMergeHook adds a merge observer.
func (db *DB) RegisterMergeHook(h MergeHook) { db.hooks = append(db.hooks, h) }

// Lock acquires the exclusive writer lock.
func (db *DB) Lock() { db.mu.Lock() }

// Unlock releases the exclusive writer lock.
func (db *DB) Unlock() { db.mu.Unlock() }

// RLock acquires the shared reader lock queries run under.
func (db *DB) RLock() { db.mu.RLock() }

// RUnlock releases the shared reader lock.
func (db *DB) RUnlock() { db.mu.RUnlock() }
