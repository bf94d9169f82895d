package main

import (
	"fmt"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/query"
	"aggcache/internal/shard"
	"aggcache/internal/sql"
	"aggcache/internal/table"
)

// prepared is one query of a workload's rotation.
type prepared struct {
	name  string
	q     *query.Query
	strat core.Strategy
}

// engine is the system under test as a workload sees it: a plain cache
// manager over one database, or the scatter-gather front over a cluster.
type engine struct {
	mgr     *core.Manager
	db      *table.DB
	sh      *shard.Sharded
	workers int
}

// acc accumulates what one timed phase observed: latency samples from the
// client's side and the counters the engine reports per execution.
type acc struct {
	tr *tracer // nil on untraced phases

	segs []segment // one per slice of a single-client phase

	latMS   []float64 // one per query, client-side wall
	startNS []int64   // query start offsets (erp-mixed only, for merge overlap)
	errs    int
	ts      traceStats

	parseNS int64
	parses  int

	execs        int // manager executions (one per dispatched shard when sharded)
	stats        query.Stats
	subjoinsMax  int
	hits         int
	rebuilt      int
	bypassed     int
	admitted     int
	mainCompRows int64
	deltaComp    time.Duration
	deltaTuples  int64

	// Scatter-gather counters (sharded engine only).
	shardQueries   int
	shardPruned    int
	shardScattered int
	shardSingle    int
	slowestFrac    float64
	shardSelfNS    int64

	// Write side.
	insertBatchMS []float64 // per batch, from its scheduled send time (open loop) or start (closed loop)
	latenessMS    []float64 // how late each open-loop batch started
	insertRows    int
	insertNS      int64 // time inside the insert calls, lock wait excluded
	mergeMS       []float64
	mergeWindows  [][2]int64 // merge [start, end) offsets, same clock as startNS
}

func (a *acc) recordInfo(info *core.ExecInfo) {
	a.execs++
	a.stats.Add(info.Stats)
	if info.Stats.Subjoins > a.subjoinsMax {
		a.subjoinsMax = info.Stats.Subjoins
	}
	if info.CacheHit {
		a.hits++
	}
	if info.Rebuilt {
		a.rebuilt++
	}
	if info.Bypassed {
		a.bypassed++
	}
	if info.Admitted {
		a.admitted++
	}
	a.mainCompRows += int64(info.MainCompensated)
	a.deltaComp += info.DeltaComp
	a.deltaTuples += info.DeltaTuples
}

// exec runs one query operation and records it. A non-empty sqlText is
// parsed inside the timed operation and replaces p.q (ad hoc queries).
func (e *engine) exec(a *acc, p *prepared, sqlText string) {
	start := time.Now()
	q := p.q
	var parseEnd time.Time
	if sqlText != "" {
		st, err := sql.Parse(e.db, sqlText)
		parseEnd = time.Now()
		a.parseNS += int64(parseEnd.Sub(start))
		a.parses++
		if err != nil {
			a.errs++
			return
		}
		q = st.Query
	}
	if e.sh != nil {
		e.execSharded(a, q, p.strat, start)
		return
	}
	if a.tr == nil {
		_, info, err := e.mgr.Execute(q, p.strat)
		a.latMS = append(a.latMS, float64(time.Since(start))/1e6)
		if err != nil {
			a.errs++
			return
		}
		a.recordInfo(&info)
		return
	}
	callStart := time.Now()
	_, info, sp, err := e.mgr.ExplainAnalyze(q, p.strat)
	end := time.Now()
	a.latMS = append(a.latMS, float64(end.Sub(start))/1e6)
	op := a.tr.beginOp(start, end)
	if sqlText != "" {
		a.tr.add(op, spanParse, start, parseEnd)
	}
	// The call span wraps ExplainAnalyze from outside; the engine's own
	// root span hangs beneath it under the same name, so lock, pin and
	// observer time around the engine's root folds into core.execute too.
	call := a.tr.add(op, spanExecute, callStart, end)
	if err != nil {
		a.errs++
		return
	}
	a.tr.addEngineTree(call, sp, &a.ts)
	a.recordInfo(&info)
}

// execSharded runs one scatter-gather query. The scatter layer exposes no
// span tree, so the traced run synthesises one child span per dispatched
// shard from ExecInfo.PerShard[i].Total, all starting at the call: the
// union of them is the slowest shard, and shard.execute's self time is the
// prune pass plus the ordered fold.
func (e *engine) execSharded(a *acc, q *query.Query, strat core.Strategy, start time.Time) {
	callStart := time.Now()
	_, info, err := e.sh.Execute(q, strat)
	end := time.Now()
	a.latMS = append(a.latMS, float64(end.Sub(start))/1e6)
	if err != nil {
		a.errs++
		return
	}
	a.shardQueries++
	a.shardPruned += info.Pruned
	a.shardScattered += info.Scattered
	if info.SingleDeltaShard {
		a.shardSingle++
	}
	var slowest time.Duration
	for i := range info.PerShard {
		pi := &info.PerShard[i]
		if pi.Total > slowest {
			slowest = pi.Total
		}
		if info.Reasons[i] == shard.PruneNone {
			a.recordInfo(pi)
		}
	}
	a.slowestFrac += ratio(float64(slowest), float64(info.Total))
	a.shardSelfNS += int64(info.Total - slowest)
	if a.tr == nil {
		return
	}
	op := a.tr.beginOp(start, end)
	call := a.tr.add(op, spanShardExec, callStart, end)
	for i := range info.PerShard {
		if info.Reasons[i] == shard.PruneNone {
			a.tr.add(call, spanShardMgr, callStart, callStart.Add(info.PerShard[i].Total))
		}
	}
}

// check compares one prepared query, served through the cache, against the
// uncached oracle on the same pinned snapshot. perturb corrupts the served
// result first — the self-test that a mismatch is caught.
func (e *engine) check(p *prepared, perturb bool) (time.Duration, error) {
	var got, want *query.AggTable
	var oracleDur time.Duration
	if e.sh != nil {
		// The cluster has no cross-shard snapshot; the single client is
		// quiescent between the two calls.
		var err error
		if got, _, err = e.sh.Execute(p.q, p.strat); err != nil {
			return 0, err
		}
		t := time.Now()
		if want, _, err = e.sh.Execute(p.q, core.Uncached); err != nil {
			return 0, err
		}
		oracleDur = time.Since(t)
	} else {
		snap, release := e.mgr.PinSnapshot()
		defer release()
		e.db.RLock()
		res, _, err := e.mgr.ExecuteAt(p.q, snap, p.strat)
		e.db.RUnlock()
		if err != nil {
			return 0, err
		}
		got = res
		t := time.Now()
		if want, _, err = e.mgr.Oracle(p.q, snap, e.workers, nil); err != nil {
			return 0, err
		}
		oracleDur = time.Since(t)
	}
	if perturb {
		got.Perturb(1)
	}
	if !got.Equal(want) {
		return oracleDur, fmt.Errorf("oracle mismatch on %s", p.name)
	}
	return oracleDur, nil
}
