package query

import (
	"runtime"
	"sync"
	"sync/atomic"

	"aggcache/internal/expr"
	"aggcache/internal/obs"
	"aggcache/internal/txn"
	"aggcache/internal/vec"
)

// ComboJob is one unit of work for ExecuteJobs: a subjoin combination plus
// its pushed-down filters, its terms, an optional recycled seed, and a
// pre-created trace span. The caller (the aggregate cache manager, or
// ExecuteAll) plans jobs sequentially — pruning decisions, events, and span
// creation stay on the coordinating goroutine — and hands the surviving
// subjoins to the pool.
type ComboJob struct {
	Combo Combo
	// Extra holds per-table pushdown filters, conjoined with the query's
	// own local filters.
	Extra map[string]expr.Pred
	// Span is the job's pre-created child span; nil disables tracing. The
	// worker running the job calls Begin/End on it, so durations measure
	// execution rather than queueing, while the span tree itself — created
	// in plan order — stays deterministic under parallel execution.
	Span *obs.Span
	// Cached, when non-nil, seeds the job's result with a recycled subjoin
	// partial (merged read-only into the job's private table). With Terms
	// nil the seed is exact — the job executes nothing.
	Cached *AggTable
	// Terms are the job's executions, run in order into one private table:
	// each term is a per-table explicit row set replacing snapshot
	// visibility (nil entries keep it). A negative-delta main compensation
	// job is one term; a recycler top-up's terms partition exactly the join
	// contributions of rows that became visible after the Cached seed's
	// watermark, so seed + terms equals a fresh execution. Terms and Cached
	// both nil is one execution under snapshot visibility.
	Terms [][]*vec.BitSet
}

// snapshotTerm is the one term of a job without terms or seed: every table
// under snapshot visibility.
var snapshotTerm = [][]*vec.BitSet{nil}

// PoolSize reports how many worker goroutines ExecuteJobs uses for a batch
// of n jobs: Workers (or GOMAXPROCS when unset), capped by n.
func (e *Executor) PoolSize(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ParallelWorkers reports the pool size ExecuteJobs will use for a batch of
// n jobs, or 0 when the batch runs inline on the calling goroutine. Callers
// record it as the "workers" attribute on the parallel phase's span so the
// critical-path analyzer knows the pool size even when fewer workers ended
// up receiving jobs.
func (e *Executor) ParallelWorkers(n int) int {
	if n < 2 {
		return 0
	}
	if w := e.PoolSize(n); w > 1 {
		return w
	}
	return 0
}

// ExecuteJobs evaluates a batch of subjoin jobs and folds their results into
// out and st. Jobs are independent — each accumulates into a private
// AggTable with private Stats — so the pool may run them in any order on up
// to PoolSize goroutines; results are then merged in job-index order. The
// sequential fallback (one worker, or a single job) follows the exact same
// private-table discipline, so the result and the Stats are byte-identical
// for every worker count: float summation order per group never depends on
// scheduling.
//
// onDone, when non-nil, is invoked in job-index order after each job's
// result is merged — the manager's per-subjoin event and recycler-admission
// hook; sub is the job's private result table, which the callback may take
// ownership of (it is never touched again after the merge).
//
// On error, stats are folded in job order up to and including the first
// failing job and that job's error is returned.
//
// shard.ExecuteSpan layers the same invariant one level up: per-shard
// results are folded in ascending shard order, so a sharded cluster is
// byte-identical to the unsharded database at every (shard count x worker
// count). Changing the fold discipline here breaks both oracles
// (TestWorkloadDeterminismAcrossWorkers and the difftest shard mode).
func (e *Executor) ExecuteJobs(q *Query, jobs []ComboJob, snap txn.Snapshot, out *AggTable, st *Stats, onDone func(i int, jst *Stats, sub *AggTable)) error {
	if len(jobs) == 0 {
		return nil
	}
	// One build memo per batch: combos sharing a build store reuse one hash
	// table (and, through e.Builds, tables cached by earlier queries).
	var memo *buildMemo
	if e.Builds != nil || len(jobs) > 1 {
		memo = newBuildMemo(q, e.Builds)
	}
	if e.PoolSize(len(jobs)) <= 1 || len(jobs) < 2 {
		scr := getScratch()
		defer putScratch(scr)
		for i := range jobs {
			sub := NewAggTable(q.Aggs)
			var jst Stats
			err := e.runJob(scr, q, &jobs[i], snap, sub, &jst, -1, memo)
			st.Add(jst)
			if err != nil {
				return err
			}
			out.Merge(sub)
			if onDone != nil {
				onDone(i, &jst, sub)
			}
		}
		return nil
	}

	type jobResult struct {
		sub *AggTable
		st  Stats
		err error
	}
	results := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < e.PoolSize(len(jobs)); g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			scr := getScratch()
			defer putScratch(scr)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				r := &results[i]
				sub := NewAggTable(q.Aggs)
				r.err = e.runJob(scr, q, &jobs[i], snap, sub, &r.st, worker, memo)
				r.sub = sub
				e.ParallelSubjoins.Inc()
			}
		}(g)
	}
	wg.Wait()
	for i := range results {
		st.Add(results[i].st)
		if results[i].err != nil {
			return results[i].err
		}
		out.Merge(results[i].sub)
		if onDone != nil {
			onDone(i, &results[i].st, results[i].sub)
		}
	}
	return nil
}

// runJob executes one job on the given pool worker (-1 for inline execution
// on the coordinator). On traced parallel runs the span records which worker
// ran the job and its queue/run split: queue_us is the time the job waited
// in the pool behind busy workers (creation to Begin), run_us its actual
// execution time. The trace-event exporter and the critical-path analyzer
// both key off these attributes.
func (e *Executor) runJob(scr *execScratch, q *Query, job *ComboJob, snap txn.Snapshot, sub *AggTable, jst *Stats, worker int, memo *buildMemo) error {
	job.Span.Begin()
	terms := job.Terms
	if job.Cached != nil {
		// A recycled partial: exact without terms, topped up by them
		// otherwise. Merge copies the groups, so the cached value is never
		// aliased into the output.
		sub.Merge(job.Cached)
	} else if terms == nil {
		terms = snapshotTerm
	}
	// Term order is fixed at plan time, so the fold order — and with it the
	// Stats — is identical at every worker count.
	var err error
	for _, restrict := range terms {
		if err = e.executeCombo(scr, q, job.Combo, snap, job.Extra, restrict, sub, jst, job.Span, memo); err != nil {
			break
		}
	}
	job.Span.End()
	if worker >= 0 && job.Span != nil {
		job.Span.AttrInt("worker", int64(worker))
		job.Span.AttrInt("queue_us", job.Span.QueueDur().Microseconds())
		job.Span.AttrInt("run_us", job.Span.Dur.Microseconds())
	}
	return err
}
