// Package verify is the continuous-correctness layer of the aggregate
// cache: online shadow verification of sampled production queries against
// the uncached oracle, a background invariant auditor over cache and
// recycler bookkeeping, and the one-shot diagnostics bundle the debug
// surface serves for postmortems.
//
// The engine's answers rest on a tall stack of reuse machinery — delta
// compensation, merge-time maintenance folds, the second-level recycler —
// exactly where stale intermediates corrupt results silently. The
// offline harnesses (difftest, CI soaks) assert correctness between
// releases; this package watches it in the live process and captures a
// complete reproducer the moment something diverges.
package verify

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/txn"
)

// ArtifactEnv is the environment variable naming the default reproducer
// directory — shared with the difftest harness, so shadow-verification
// artifacts land next to shrunk difftest failure seeds.
const ArtifactEnv = "AGGCACHE_DIFFTEST_ARTIFACTS"

// Config tunes a Verifier.
type Config struct {
	// SampleRate is the fraction of production executions shadow-verified,
	// in [0, 1]. Selection hashes the query's normalized shape with Seed
	// and the verifier's execution ordinal — deterministic, no math/rand
	// anywhere near the serving path.
	SampleRate float64
	// Seed perturbs the sampling hash so repeated runs at the same rate
	// can pick different executions.
	Seed uint64
	// OracleWorkers is the worker count of the second oracle arm, which
	// cross-checks worker-count independence (rows AND Stats) live; 0
	// means GOMAXPROCS, negative disables the second arm. The first arm
	// always runs strictly sequential (workers=1).
	OracleWorkers int
	// Queue bounds the pending shadow re-executions; captures beyond it
	// are dropped (counted in verify.dropped) rather than backpressuring
	// the serving path. 0 means DefaultQueue.
	Queue int
	// ArtifactDir receives one JSON reproducer per divergence; "" falls
	// back to $AGGCACHE_DIFFTEST_ARTIFACTS, and if that is unset too no
	// artifact is written.
	ArtifactDir string
	// Reproducer, when non-nil, supplies the difftest-style program (seed
	// + Format rendering) embedded in divergence artifacts so
	// difftest.ParseProgram/RunSeed can replay the mismatch. Production
	// processes leave it nil — they have no op program — and the artifact
	// then carries the query-level evidence alone.
	Reproducer func() (seed int64, program string)
	// Metrics receives the verify.* counters; nil uses the manager's
	// registry.
	Metrics *obs.Registry
	// Ledger receives verify-mismatch decisions; nil uses the manager's
	// ledger (which may itself be nil/disabled).
	Ledger *obs.Ledger
	// Recorder retains shadow-verification traces; nil uses no recorder.
	Recorder *obs.Recorder
}

// DefaultQueue is the pending-task bound used when Config.Queue is 0.
const DefaultQueue = 64

// Divergence is one confirmed mismatch between a production answer and the
// oracle — the /debug payload row and the artifact body.
type Divergence struct {
	UnixMS int64 `json:"unix_ms"`
	// Reason classifies the mismatch: "rows" (production vs sequential
	// oracle), "worker-rows" / "worker-stats" (oracle arms disagreeing
	// across worker counts), or "oracle-error".
	Reason      string `json:"reason"`
	Fingerprint string `json:"fingerprint"`
	Shape       string `json:"shape"`
	Strategy    string `json:"strategy"`
	// SnapshotHigh is the commit watermark both executions ran at.
	SnapshotHigh uint64 `json:"snapshot_high"`
	// Got and Want are the diverging renderings (production/second-arm vs
	// oracle).
	Got  string `json:"got"`
	Want string `json:"want"`
	// Artifact is the persisted reproducer path ("" when none was
	// written).
	Artifact string `json:"artifact,omitempty"`
	// Seed and Program are the embedded difftest reproducer (Config.
	// Reproducer), replayable via difftest.ParseProgram + RunSeed.
	Seed    int64  `json:"seed,omitempty"`
	Program string `json:"program,omitempty"`
}

// Status is the verifier's introspection payload, embedded in the
// diagnostics bundle.
type Status struct {
	SampleRate     float64     `json:"sample_rate"`
	Checks         int64       `json:"checks"`
	Divergences    int64       `json:"divergences"`
	Dropped        int64       `json:"dropped"`
	Pending        int64       `json:"pending"`
	LastDivergence *Divergence `json:"last_divergence,omitempty"`
}

// task is one captured execution awaiting shadow re-execution. rows is
// rendered at capture time (before the result is handed to the caller, who
// may mutate it); release frees the nested snapshot pin.
type task struct {
	q       *query.Query
	strat   core.Strategy
	snap    txn.Snapshot
	release func()
	rows    string
}

// Verifier implements core.ShadowHook: it samples production executions
// deterministically and re-executes them in the background against the
// uncached oracle while the original snapshot stays pinned, diffing rows
// and Stats. One worker goroutine processes captures in order.
type Verifier struct {
	m         *core.Manager
	cfg       Config
	threshold uint64
	seq       atomic.Uint64

	checks      tally // verify.checks — shadow re-executions completed
	divergences tally // verify.divergences — confirmed mismatches
	dropped     tally // verify.dropped — captures shed (queue full / stopped)
	pending     tally // verify.pending (a gauge) — captures awaiting re-execution

	mu     sync.Mutex
	tasks  chan task
	closed bool
	done   chan struct{}
	last   *Divergence
}

// New builds a verifier over the manager and starts its worker goroutine;
// call m.SetShadow(v) (or use Attach) to begin sampling, and Stop to drain
// and halt.
func New(m *core.Manager, cfg Config) *Verifier {
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	if cfg.ArtifactDir == "" {
		cfg.ArtifactDir = os.Getenv(ArtifactEnv)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = m.Metrics()
	}
	if cfg.Ledger == nil {
		cfg.Ledger = m.Ledger()
	}
	v := &Verifier{
		m:           m,
		cfg:         cfg,
		threshold:   sampleThreshold(cfg.SampleRate),
		checks:      tally{reg: reg.Counter("verify.checks")},
		divergences: tally{reg: reg.Counter("verify.divergences")},
		dropped:     tally{reg: reg.Counter("verify.dropped")},
		pending:     tally{reg: reg.Gauge("verify.pending")},
		tasks:       make(chan task, cfg.Queue),
		done:        make(chan struct{}),
	}
	go v.run()
	return v
}

// tally is one of a verifier's counts: its own value, which Status reports,
// and the registry metric it also feeds — verifiers sharing a registry (one
// per shard of a cluster) sum there.
type tally struct {
	own atomic.Int64
	reg interface{ Add(int64) }
}

func (t *tally) Add(n int64) {
	t.own.Add(n)
	t.reg.Add(n)
}

func (t *tally) Value() int64 { return t.own.Load() }

// Attach builds a verifier and installs it as the manager's shadow hook.
func Attach(m *core.Manager, cfg Config) *Verifier {
	v := New(m, cfg)
	m.SetShadow(v)
	return v
}

// sampleThreshold maps a rate in [0,1] onto the uint64 hash space.
func sampleThreshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * float64(1<<63) * 2)
}

// Sampled implements core.ShadowHook: a deterministic hash of the query's
// normalized shape, the seed, and this verifier's execution ordinal —
// cheap (the shape fingerprint is memoized on the query) and free of
// math/rand.
func (v *Verifier) Sampled(q *query.Query) bool {
	if v.threshold == 0 {
		return false
	}
	if v.threshold == ^uint64(0) {
		return true
	}
	h := shapeHash(q.Shape(), v.cfg.Seed, v.seq.Add(1))
	return h < v.threshold
}

// shapeHash is FNV-1a over the shape seeded by seed, finalized with the
// ordinal through a splitmix64 round so successive executions of one shape
// land uniformly across the hash space.
func shapeHash(shape string, seed, n uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ seed
	for i := 0; i < len(shape); i++ {
		h ^= uint64(shape[i])
		h *= prime64
	}
	h += n * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Capture implements core.ShadowHook: it renders the production result
// synchronously (the caller may mutate it afterwards) and enqueues the
// shadow task, shedding — never blocking — when the queue is full.
func (v *Verifier) Capture(q *query.Query, strat core.Strategy, snap txn.Snapshot, release func(), res *query.AggTable, info core.ExecInfo) {
	t := task{q: q, strat: strat, snap: snap, release: release, rows: renderRows(res)}
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		release()
		v.dropped.Add(1)
		return
	}
	select {
	case v.tasks <- t:
		v.pending.Add(1)
		v.mu.Unlock()
	default:
		v.mu.Unlock()
		release()
		v.dropped.Add(1)
	}
}

// Stop detaches nothing by itself (call m.SetShadow(nil) first if the hook
// is still installed), drains every queued task, and waits for the worker
// to exit. Stopping twice is a no-op.
func (v *Verifier) Stop() {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		<-v.done
		return
	}
	v.closed = true
	close(v.tasks)
	v.mu.Unlock()
	<-v.done
}

// Status snapshots the verifier's counters and last divergence.
func (v *Verifier) Status() Status {
	v.mu.Lock()
	last := v.last
	v.mu.Unlock()
	return Status{
		SampleRate:     v.cfg.SampleRate,
		Checks:         v.checks.Value(),
		Divergences:    v.divergences.Value(),
		Dropped:        v.dropped.Value(),
		Pending:        v.pending.Value(),
		LastDivergence: last,
	}
}

func (v *Verifier) run() {
	defer close(v.done)
	for t := range v.tasks {
		v.process(t)
		v.pending.Add(-1)
	}
}

// process re-executes one captured query against the oracle under its
// still-pinned snapshot and diffs rows and Stats.
func (v *Verifier) process(t task) {
	defer t.release()
	var sp *obs.Span
	if v.cfg.Recorder.Enabled() {
		sp = obs.StartSpan("shadow-verify " + t.q.Fingerprint())
		sp.Attr("strategy", t.strat.String())
		sp.Attr("shape", t.q.Shape())
	}
	// Both arms run under one read-lock acquisition (OracleArms): a merge
	// interleaved between separate lock grabs would rewrite the physical
	// store layout and legitimately change prune/scan accounting, turning
	// the arm-vs-arm Stats diff into a false positive.
	workers := []int{1}
	sps := []*obs.Span{sp.Child("oracle-sequential")}
	if v.cfg.OracleWorkers >= 0 {
		workers = append(workers, v.cfg.OracleWorkers)
		sps = append(sps, sp.Child("oracle-parallel"))
	}
	arms := v.m.OracleArms(t.q, t.snap, sps, workers...)
	for _, as := range sps {
		as.End()
	}
	o1 := arms[0]
	var reason, got, want string
	switch {
	case o1.Err != nil:
		reason, got, want = "oracle-error", o1.Err.Error(), ""
	default:
		w := renderRows(o1.Rows)
		if t.rows != w {
			reason, got, want = "rows", t.rows, w
		} else if len(arms) > 1 {
			// Second arm: the parallel oracle must reproduce the
			// sequential arm's rows AND Stats (every Stats field is
			// deterministic across worker counts by contract).
			oN := arms[1]
			switch {
			case oN.Err != nil:
				reason, got, want = "oracle-error", oN.Err.Error(), ""
			case renderRows(oN.Rows) != w:
				reason, got, want = "worker-rows", renderRows(oN.Rows), w
			case o1.Stats != oN.Stats:
				reason = "worker-stats"
				got, want = fmt.Sprintf("%+v", oN.Stats), fmt.Sprintf("%+v", o1.Stats)
			}
		}
	}
	v.checks.Add(1)
	if reason == "" {
		if sp != nil {
			sp.Attr("verdict", "match")
			sp.End()
			v.cfg.Recorder.Record(sp)
		}
		return
	}
	v.diverged(t, reason, got, want, sp)
}

// diverged records a confirmed mismatch: counter, verify-mismatch ledger
// decision, full trace, persisted reproducer artifact, and the last-seen
// slot the bundle snapshots.
func (v *Verifier) diverged(t task, reason, got, want string, sp *obs.Span) {
	v.divergences.Add(1)
	d := &Divergence{
		UnixMS:       time.Now().UnixMilli(),
		Reason:       reason,
		Fingerprint:  t.q.Fingerprint(),
		Shape:        t.q.Shape(),
		Strategy:     t.strat.String(),
		SnapshotHigh: uint64(t.snap.High),
		Got:          got,
		Want:         want,
	}
	if v.cfg.Reproducer != nil {
		d.Seed, d.Program = v.cfg.Reproducer()
	}
	if v.cfg.ArtifactDir != "" {
		name := fmt.Sprintf("verify-%d-%d.json", d.UnixMS, v.divergences.Value())
		path := filepath.Join(v.cfg.ArtifactDir, name)
		if body, err := json.MarshalIndent(d, "", "  "); err == nil {
			if err := os.WriteFile(path, body, 0o644); err == nil {
				d.Artifact = path
			}
		}
	}
	if led := v.cfg.Ledger; led.Enabled() {
		led.Record(obs.Decision{
			Kind:     obs.DecisionVerifyMismatch,
			Key:      d.Fingerprint,
			Shape:    d.Shape,
			Strategy: d.Strategy,
			Reason:   reason,
		})
	}
	if sp != nil {
		sp.Attr("verdict", "mismatch")
		sp.Attr("reason", reason)
		sp.Attr("got", got)
		sp.Attr("want", want)
		sp.End()
		v.cfg.Recorder.Record(sp)
	}
	v.mu.Lock()
	v.last = d
	v.mu.Unlock()
}

// renderRows is the canonical result rendering shared with the difftest
// harness: finalized rows, sorted by group key, via fmt's %+v.
func renderRows(a *query.AggTable) string {
	return fmt.Sprintf("%+v", a.Rows())
}
