package obs

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// DecisionKind enumerates the cache decisions the ledger records.
type DecisionKind uint8

const (
	// DecisionHit: a query was answered from a fresh cache entry.
	DecisionHit DecisionKind = iota
	// DecisionMiss: no entry existed; one was built.
	DecisionMiss
	// DecisionRebuild: a stale entry was recomputed to serve the query.
	DecisionRebuild
	// DecisionBypass: the query's snapshot predated the entry; the cache
	// could not be used regardless of configuration.
	DecisionBypass
	// DecisionAdmit: a freshly built entry was admitted.
	DecisionAdmit
	// DecisionReject: a freshly built entry was denied admission (see
	// Reason: not self-maintainable, or profit below the threshold).
	DecisionReject
	// DecisionEvict: an admitted entry was removed (see Reason: capacity,
	// stale, or min-profit).
	DecisionEvict
	// DecisionInvalidate: an entry was marked stale because main-store
	// invalidations could not be compensated incrementally.
	DecisionInvalidate
	// DecisionCompensate: main compensation subtracted invalidated rows
	// from an entry in place (Rows carries the count).
	DecisionCompensate
	// DecisionFold: merge-time incremental maintenance folded a merging
	// delta into an entry (Rows carries the folded tuple count).
	DecisionFold
	// DecisionRecycleHit: a subjoin was served entirely from the recycler
	// cache (exact watermark match).
	DecisionRecycleHit
	// DecisionRecycleTopup: a recycled subjoin partial at an older
	// watermark seeded the result; only newly visible rows were scanned
	// (Rows carries the top-up row count).
	DecisionRecycleTopup
	// DecisionRecycleAdmit: a freshly executed subjoin partial was
	// admitted to the recycler.
	DecisionRecycleAdmit
	// DecisionRecycleEvict: a recycler partial was removed (see Reason:
	// capacity, invalidated).
	DecisionRecycleEvict
	// DecisionVerifyMismatch: online shadow verification re-executed a
	// sampled query against the uncached oracle and the answers diverged
	// (see Reason: rows, worker-rows, or worker-stats).
	DecisionVerifyMismatch
	numDecisionKinds
)

var decisionKindNames = [numDecisionKinds]string{
	"hit", "miss", "rebuild", "bypass", "admit", "reject",
	"evict", "invalidate", "compensate", "fold",
	"recycle-hit", "recycle-topup", "recycle-admit", "recycle-evict",
	"verify-mismatch",
}

// String names the decision kind; the names double as the JSON encoding.
func (k DecisionKind) String() string {
	if int(k) < len(decisionKindNames) {
		return decisionKindNames[k]
	}
	return "decision(" + strconv.Itoa(int(k)) + ")"
}

// MarshalText encodes the kind as its name, so ledger snapshots read
// naturally in JSON.
func (k DecisionKind) MarshalText() ([]byte, error) {
	return []byte(k.String()), nil
}

// UnmarshalText decodes a kind name (round-trip for persisted snapshots).
func (k *DecisionKind) UnmarshalText(text []byte) error {
	for i, n := range decisionKindNames {
		if n == string(text) {
			*k = DecisionKind(i)
			return nil
		}
	}
	return fmt.Errorf("unknown decision kind %q", text)
}

// Decision is one recorded cache decision with the profit inputs
// snapshotted at decision time — what the admission/eviction policy saw
// when it acted, not a later reconstruction. Access decisions (hit, miss,
// rebuild, bypass) record one per query execution; lifecycle decisions
// (admit, reject, evict, invalidate, compensate, fold) record at the point
// the cache acted.
//
// Wall-clock fields (UnixNS, ComputeNS, ServeNS, AgeNS, Profit) vary run to
// run; the replayable cost proxies (SizeBytes, MainRows, DeltaRows, Hits)
// are pure functions of the workload, which is what makes a ledger
// byte-comparable across runs and worker counts (see AppendCanon).
type Decision struct {
	// Seq is the ledger-assigned sequence number, increasing in decision
	// order and unique per ledger (it keeps counting when the ring wraps).
	Seq int64 `json:"seq"`
	// UnixNS is the decision's wall-clock time.
	UnixNS int64 `json:"unix_ns"`
	// Kind is the decision kind.
	Kind DecisionKind `json:"kind"`
	// Key is the cache key (query fingerprint) the decision concerns.
	Key string `json:"key,omitempty"`
	// Shape is the normalized query-shape fingerprint (literals elided) of
	// the query behind the decision — the per-shape profiler's key. Empty
	// for decisions with no originating query.
	Shape string `json:"shape,omitempty"`
	// Reason qualifies reject/evict/invalidate decisions (eviction reason,
	// rejection cause, invalidation cause).
	Reason string `json:"reason,omitempty"`
	// Strategy is the execution strategy of access decisions.
	Strategy string `json:"strategy,omitempty"`

	// Profit components, snapshotted from the entry at decision time.

	// Hits is the entry's accumulated hit count.
	Hits int64 `json:"hits"`
	// SizeBytes is the entry's cached-value footprint.
	SizeBytes uint64 `json:"size_bytes"`
	// ComputeNS is the entry's observed main-store computation time — the
	// work a hit saves (Metrics.MainExecTime).
	ComputeNS int64 `json:"compute_ns"`
	// ServeNS is the observed wall clock of this execution (access
	// decisions only) — what serving the query actually cost.
	ServeNS int64 `json:"serve_ns,omitempty"`
	// AgeNS is the time since the entry's last access.
	AgeNS int64 `json:"age_ns,omitempty"`
	// Profit is the entry's profit score at decision time.
	Profit float64 `json:"profit"`
	// MainRows and DeltaRows are the deterministic cost proxies behind
	// ComputeNS/ServeNS: records aggregated on the main stores at (re)build
	// and cumulatively during delta compensation.
	MainRows  int64 `json:"main_rows"`
	DeltaRows int64 `json:"delta_rows"`
	// Rows carries the decision's own row count: invalidated rows removed
	// (compensate) or delta tuples folded (fold).
	Rows int64 `json:"rows,omitempty"`

	// Cache state after the decision.

	// CacheBytes is the summed cached-value footprint.
	CacheBytes uint64 `json:"cache_bytes"`
	// CacheEntries is the entry count.
	CacheEntries int64 `json:"cache_entries"`

	// RegretX marks a miss whose key was evicted earlier: the cache-bytes /
	// capacity ratio at eviction time, i.e. the capacity multiple at which
	// the ledger predicts this miss would have been a hit. Zero otherwise.
	RegretX float64 `json:"regret_x,omitempty"`
}

// AppendCanon appends the decision's canonical rendering to b: the
// deterministic fields only, excluding wall-clock measurements (UnixNS,
// ComputeNS, ServeNS, AgeNS, Profit, RegretX), so two runs of the same
// seeded workload — at any worker count — produce byte-identical canonical
// ledgers. The differential harness compares these.
func (d *Decision) AppendCanon(b []byte) []byte {
	b = append(b, "seq="...)
	b = strconv.AppendInt(b, d.Seq, 10)
	b = append(b, " kind="...)
	b = append(b, d.Kind.String()...)
	b = append(b, " key="...)
	b = append(b, d.Key...)
	b = append(b, " shape="...)
	b = append(b, d.Shape...)
	b = append(b, " reason="...)
	b = append(b, d.Reason...)
	b = append(b, " strategy="...)
	b = append(b, d.Strategy...)
	b = append(b, " hits="...)
	b = strconv.AppendInt(b, d.Hits, 10)
	b = append(b, " size="...)
	b = strconv.AppendUint(b, d.SizeBytes, 10)
	b = append(b, " main_rows="...)
	b = strconv.AppendInt(b, d.MainRows, 10)
	b = append(b, " delta_rows="...)
	b = strconv.AppendInt(b, d.DeltaRows, 10)
	b = append(b, " rows="...)
	b = strconv.AppendInt(b, d.Rows, 10)
	b = append(b, " cache_bytes="...)
	b = strconv.AppendUint(b, d.CacheBytes, 10)
	b = append(b, " cache_entries="...)
	b = strconv.AppendInt(b, d.CacheEntries, 10)
	return b
}

// CanonLedger renders a decision sequence canonically, one line per
// decision — the unit of cross-run and cross-worker-count comparison.
func CanonLedger(ds []Decision) string {
	var b []byte
	for i := range ds {
		b = ds[i].AppendCanon(b)
		b = append(b, '\n')
	}
	return string(b)
}

// Ledger is the cache decision ledger: a fixed-capacity ring buffer of
// Decision records. It makes the profit-based admission/eviction policy
// replayable — every decision carries the inputs the policy saw — and is
// the recording the shadow-cache advisor (internal/advisor) simulates
// alternative configurations against.
//
// A nil *Ledger is the disabled ledger: Enabled reports false, Record is a
// no-op, and Snapshot returns nil, so the cache manager's per-decision hook
// costs one nil check and zero allocations when the ledger is off (the
// default) — TestDisabledLedgerAllocs asserts this. Recording into an
// enabled ledger is also allocation-free: the ring is preallocated and a
// Decision is a flat value (string fields share their backing arrays).
//
// Ledger is safe for concurrent use; decisions are ordered by the ledger
// mutex, which callers rely on for deterministic sequences (the manager
// records under its own lock or at well-ordered points).
type Ledger struct {
	mu   sync.Mutex
	ring *Ring[Decision]
}

// DefaultLedgerCapacity is the ring size used when none is configured.
const DefaultLedgerCapacity = 8192

// NewLedger returns a ledger retaining the last capacity decisions
// (DefaultLedgerCapacity when capacity <= 0).
func NewLedger(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultLedgerCapacity
	}
	return &Ledger{ring: NewRing[Decision](capacity)}
}

// Enabled reports whether decisions are recorded; a nil receiver reports
// false. Callers gate Decision construction on it so the disabled path does
// no work.
func (l *Ledger) Enabled() bool { return l != nil }

// Record retains one decision, assigning its sequence number and timestamp.
// It is allocation-free: the decision is copied into the preallocated ring.
func (l *Ledger) Record(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	d.Seq = l.ring.Pushed() + 1
	d.UnixNS = time.Now().UnixNano()
	l.ring.Push(d)
	l.mu.Unlock()
}

// Len reports how many decisions are retained.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}

// Seq reports the total number of decisions ever recorded; Seq() - Len() is
// how many the ring has dropped.
func (l *Ledger) Seq() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Pushed()
}

// Snapshot copies the retained decisions in recording order (oldest first).
// A nil ledger snapshots nothing.
func (l *Ledger) Snapshot() []Decision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Snapshot()
}
