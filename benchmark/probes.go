package main

import (
	"strings"
	"time"

	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/expr"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/shard"
	"aggcache/internal/table"
	"aggcache/internal/vec"
	"aggcache/internal/workload"
)

// The probes time the layers that record no span of their own (md, txn,
// column, expr, AggTable, merge phases, the shard N=1 pair, the observer
// on/off pair) by calling their public functions on the workload's final
// database state, after the traced phase. Each loops for probeBudget so one
// reading averages hundreds of calls.
const probeBudget = 30 * time.Millisecond

// timeLoop calls f for about budget (at least three times) and returns the
// mean duration of one call.
func timeLoop(budget time.Duration, f func()) time.Duration {
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < budget {
		f()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// distinctQueries returns the workload's prepared queries without
// duplicates (erp-shard4 runs one query under two strategies).
func (inst *instance) distinctQueries() []*query.Query {
	seen := map[string]bool{}
	var out []*query.Query
	for i := range inst.queries {
		q := inst.queries[i].q
		if !seen[q.Fingerprint()] {
			seen[q.Fingerprint()] = true
			out = append(out, q)
		}
	}
	return out
}

// largestStore returns the table and main store with the most rows.
func largestStore(db *table.DB) (*table.Table, *table.Store) {
	var bt *table.Table
	var bs *table.Store
	for _, name := range db.TableNames() {
		t := db.MustTable(name)
		for _, p := range t.Partitions() {
			if bs == nil || p.Main.Rows() > bs.Rows() {
				bt, bs = t, p.Main
			}
		}
	}
	return bt, bs
}

// subjoin is one delta-involving combination of one prepared query.
type subjoin struct {
	q *query.Query
	c query.Combo
}

// deltaSubjoins lists what delta compensation plans for the workload's
// queries on the probe database.
func (inst *instance) deltaSubjoins() []subjoin {
	var out []subjoin
	for _, q := range inst.distinctQueries() {
		for _, c := range query.AllCombos(inst.probeDB, q) {
			if !c.IsAllMain() {
				out = append(out, subjoin{q, c})
			}
		}
	}
	return out
}

// probeMD times the matching-dependency prefilter and the pushdown
// derivation per subjoin combination, and MD enforcement per inserted row.
func (inst *instance) probeMD(m metricValues) {
	reg := inst.probeReg
	pairs := inst.deltaSubjoins()
	if len(pairs) > 0 {
		per := timeLoop(probeBudget, func() {
			for _, p := range pairs {
				reg.ComboPruned(p.q, p.c)
			}
		})
		m["md.combo_pruned_us"] = float64(per) / float64(len(pairs)) / 1e3
		per = timeLoop(probeBudget, func() {
			for _, p := range pairs {
				reg.PushdownFilters(p.q, p.c)
			}
		})
		m["md.pushdown_us"] = float64(per) / float64(len(pairs)) / 1e3
	}
	if inst.childRow != nil {
		child, row := inst.childRow()
		failed := false
		per := timeLoop(probeBudget, func() {
			if reg.FillChildTIDs(child, row) != nil {
				failed = true
			}
		})
		if !failed {
			m["md.fill_tids_us"] = float64(per) / 1e3
		}
	}
}

// probeTxn times visibility rendering per row, a read pin, and an empty
// write transaction.
func (inst *instance) probeTxn(m metricValues) {
	db := inst.probeDB
	_, st := largestStore(db)
	snap := db.Txns().ReadSnapshot()
	var bs vec.BitSet
	if st.Rows() > 0 {
		per := timeLoop(probeBudget, func() { st.VisibilityInto(snap, &bs) })
		m["txn.visibility_ns_per_row"] = float64(per) / float64(st.Rows())
	}
	per := timeLoop(probeBudget, func() {
		_, unpin := db.Txns().PinRead()
		unpin()
	})
	m["txn.pin_us"] = float64(per) / 1e3
	db.Lock()
	per = timeLoop(probeBudget, func() { db.Txns().Begin().Commit() })
	db.Unlock()
	m["txn.commit_us"] = float64(per) / 1e3
}

func isTidColumn(name string) bool {
	return strings.HasPrefix(strings.ToLower(name), "tid")
}

// probeColumn times block decode of a dictionary-encoded int64 main column
// and accounts bytes per row and the tid columns' share (paper Sec. 6.2).
func (inst *instance) probeColumn(m metricValues) {
	t, st := largestStore(inst.probeDB)
	for i, c := range t.Schema().Cols {
		blk, ok := st.Col(i).(column.Int64Blocker)
		if !ok || c.Kind != column.Int64 || isTidColumn(c.Name) || st.Rows() < 64 {
			continue
		}
		dst := make([]int64, 64)
		n := st.Rows() / 64 * 64
		per := timeLoop(probeBudget, func() {
			for r := 0; r < n; r += 64 {
				blk.Int64Block(r, dst)
			}
		})
		m["column.decode_ns_per_row"] = float64(per) / float64(n)
		break
	}
	var mainBytes, deltaBytes, tidBytes, allBytes uint64
	var mainRows, deltaRows int
	for _, db := range inst.dbs {
		for _, name := range db.TableNames() {
			t := db.MustTable(name)
			for _, p := range t.Partitions() {
				mainBytes += p.Main.MemBytes()
				mainRows += p.Main.Rows()
				deltaBytes += p.Delta.MemBytes()
				deltaRows += p.Delta.Rows()
				for _, s := range p.Stores() {
					allBytes += s.MemBytes()
					for i, c := range t.Schema().Cols {
						if isTidColumn(c.Name) {
							tidBytes += s.Col(i).MemBytes()
						}
					}
				}
			}
		}
	}
	m["column.main_bytes_per_row"] = ratio(float64(mainBytes), float64(mainRows))
	m["column.delta_bytes_per_row"] = ratio(float64(deltaBytes), float64(deltaRows))
	m["column.tid_overhead_frac"] = ratio(float64(tidBytes), float64(allBytes))
}

// probeExpr times binding an int64 range predicate against the largest
// store and evaluating it word-at-a-time over every row.
func (inst *instance) probeExpr(m metricValues) {
	t, st := largestStore(inst.probeDB)
	if st.Rows() == 0 {
		return
	}
	col := ""
	for _, c := range t.Schema().Cols {
		if c.Kind == column.Int64 && !isTidColumn(c.Name) && c.Name != t.Schema().PK {
			col = c.Name
			break
		}
	}
	if col == "" {
		return
	}
	_, hi, _ := st.Col(t.Schema().MustColIndex(col)).MinMax()
	pred := expr.NewAnd(
		expr.Cmp{Col: col, Op: expr.Ge, Val: column.IntV(0)},
		expr.Cmp{Col: col, Op: expr.Le, Val: column.IntV(hi.I / 2)},
	)
	var bound expr.Bound
	per := timeLoop(probeBudget, func() { bound, _ = pred.Bind(t.Schema().ColIndex, st) })
	m["expr.bind_us"] = float64(per) / 1e3
	we, ok := bound.(expr.WordEvaler)
	if !ok {
		return
	}
	words := (st.Rows() + 63) / 64
	var sink uint64
	per = timeLoop(probeBudget, func() {
		for w := 0; w < words; w++ {
			sink += we.EvalWord(w*64, ^uint64(0))
		}
	})
	_ = sink
	m["expr.eval_ns_per_row"] = float64(per) / float64(st.Rows())
}

// probeAgg times the group-by table on a real result: folding rows in one
// at a time, merging a finished table, and rendering output rows.
func (inst *instance) probeAgg(m metricValues) {
	p := &inst.queries[len(inst.queries)-1]
	var res *query.AggTable
	var err error
	if inst.eng.sh != nil {
		res, _, err = inst.eng.sh.Execute(p.q, p.strat)
	} else {
		res, _, err = inst.eng.mgr.Execute(p.q, p.strat)
	}
	if err != nil || res.Groups() == 0 {
		return
	}
	rows := res.Rows()
	per := timeLoop(probeBudget, func() { res.Rows() })
	m["query.rows_us"] = float64(per) / 1e3
	per = timeLoop(probeBudget, func() { query.NewAggTable(res.Specs()).Merge(res) })
	m["query.agg_merge_us"] = float64(per) / 1e3
	// Fold every result row back in 64 times: the table is warm after the
	// first pass, as it is for all but the first rows of a real subjoin.
	const passes = 64
	per = timeLoop(probeBudget, func() {
		t := query.NewAggTable(res.Specs())
		for k := 0; k < passes; k++ {
			for i := range rows {
				t.Add(rows[i].Keys, rows[i].Aggs)
			}
		}
	})
	m["query.agg_add_ns_per_row"] = float64(per) / float64(passes*len(rows))
}

// probeInsert times the regular write path per row when the timed phase
// had no writes of its own: one batch of 20 business objects.
func (inst *instance) probeInsert(m metricValues) {
	if inst.insertObjects == nil {
		return
	}
	inst.probeDB.Lock()
	t := time.Now()
	rows, err := inst.insertObjects(20)
	d := time.Since(t)
	inst.probeDB.Unlock()
	if err == nil && rows > 0 {
		m["table.insert_us"] = float64(d) / float64(rows) / 1e3
	}
}

// probeMerge drives one online merge of the workload's largest fact table
// through its three phases. It runs last: it empties that delta.
func (inst *instance) probeMerge(m metricValues) {
	db := inst.probeDB
	t0 := time.Now()
	om, err := db.StartOnlineMerge(inst.mergeTable, 0, false)
	if err != nil {
		return
	}
	t1 := time.Now()
	if err := om.Build(); err != nil {
		om.Abort()
		return
	}
	t2 := time.Now()
	st, err := om.Finish()
	t3 := time.Now()
	if err != nil {
		return
	}
	m["table.merge_prepare_us"] = float64(t1.Sub(t0)) / 1e3
	m["table.merge_build_ms"] = float64(t2.Sub(t1)) / 1e6
	m["table.merge_swap_us"] = float64(t3.Sub(t2)) / 1e3
	m["table.merge_rows_per_s"] = ratio(float64(st.FromMain+st.FromDelta), t3.Sub(t0).Seconds())
}

// pairBudget bounds one paired comparison.
const pairBudget = 400 * time.Millisecond

// pairedP50 runs a and b alternately for about pairBudget (at least five
// pairs) and returns both medians in milliseconds; alternation spreads
// drift over both arms.
func pairedP50(a, b func()) (float64, float64) {
	var la, lb []float64
	for start := time.Now(); len(la) < 5 || time.Since(start) < pairBudget; {
		t := time.Now()
		a()
		la = append(la, float64(time.Since(t))/1e6)
		t = time.Now()
		b()
		lb = append(lb, float64(time.Since(t))/1e6)
	}
	return median(la), median(lb)
}

// probeObs measures what watching costs on this workload's data: the same
// query through a bare manager and through one carrying Ledger, Recorder,
// Shapes and SLO; and ExplainAnalyze against Execute. Both managers are
// extra views of the database (the last shard's on erp-shard4), cleared
// afterwards so their merge hooks have nothing left to maintain.
func (inst *instance) probeObs(m metricValues) {
	p := &inst.queries[0]
	if inst.eng.sh != nil {
		p = &inst.queries[len(inst.queries)-1] // the cached one
	}
	bare := core.NewManager(inst.probeDB, inst.probeReg, core.Config{Workers: inst.workers, Metrics: obs.NewRegistry()})
	wcfg := watchers()
	wcfg.Workers, wcfg.Metrics = inst.workers, obs.NewRegistry()
	watched := core.NewManager(inst.probeDB, inst.probeReg, wcfg)
	defer bare.Clear()
	defer watched.Clear()
	for _, mgr := range []*core.Manager{bare, watched} {
		if _, _, err := mgr.Execute(p.q, p.strat); err != nil {
			return
		}
	}
	b, w := pairedP50(func() { bare.Execute(p.q, p.strat) }, func() { watched.Execute(p.q, p.strat) })
	m["obs.watch_overhead_frac"] = ratio(w, b) - 1
	e, x := pairedP50(func() { bare.Execute(p.q, p.strat) }, func() { bare.ExplainAnalyze(p.q, p.strat) })
	m["obs.span_overhead_frac"] = ratio(x, e) - 1
}

// probeRecycler times one recycler lookup per delta-involving subjoin at
// the final watermark.
func (inst *instance) probeRecycler(m metricValues) {
	if inst.rc == nil {
		return
	}
	db := inst.probeDB
	snap, unpin := db.Txns().PinRead()
	defer unpin()
	pairs := inst.deltaSubjoins()
	per := timeLoop(probeBudget, func() {
		for _, p := range pairs {
			inst.rc.Lookup(p.q, p.c, snap, db)
		}
	})
	m["recycler.lookup_us"] = ratio(float64(per), float64(len(pairs))) / 1e3
}

// probeShard times the prune pass alone — a query no shard can satisfy is
// pruned everywhere and dispatches nothing — and the price of the scatter
// layer at N=1: the cached query through a one-shard cluster against the
// same query through a plain manager, on a quarter-size copy of the data.
func (inst *instance) probeShard(m metricValues, p params) {
	s := inst.eng.sh
	if s == nil {
		return
	}
	none := headerRangeQuery(-1)
	per := timeLoop(probeBudget, func() { s.Execute(none, core.Uncached) })
	m["shard.prune_us"] = float64(per) / 1e3

	// The ordered fold on its own: every shard's result of the full-span
	// query merged in shard order, as the gather step does.
	full := inst.queries[0].q
	var parts []*query.AggTable
	for _, mgr := range s.Managers() {
		res, _, err := mgr.Execute(full, core.Uncached)
		if err != nil {
			return
		}
		parts = append(parts, res)
	}
	per = timeLoop(probeBudget, func() {
		out := query.NewAggTable(full.Aggs)
		for _, part := range parts {
			out.Merge(part)
		}
	})
	m["shard.fold_us"] = float64(per) / 1e3

	cfg := inst.erpCfg
	cfg.Headers = max(200, cfg.Headers/4)
	serp, err := workload.BuildShardedERP(cfg, 1)
	if err != nil {
		return
	}
	erp, err := workload.BuildERP(cfg)
	if err != nil {
		return
	}
	delta := scaled(75, p.scale, 2)
	if serp.InsertBusinessObjects(delta) != nil || erp.InsertBusinessObjects(delta) != nil {
		return
	}
	one := shard.New(serp.Cluster, shard.Config{Manager: core.Config{Workers: inst.workers}, Metrics: obs.NewRegistry()})
	plain := core.NewManager(erp.DB, erp.Reg, core.Config{Workers: inst.workers, Metrics: obs.NewRegistry()})
	q := erp.ItemRevenueQuery()
	if _, _, err := one.Execute(q, core.CachedFullPruning); err != nil {
		return
	}
	if _, _, err := plain.Execute(q, core.CachedFullPruning); err != nil {
		return
	}
	pl, sh := pairedP50(
		func() { plain.Execute(q, core.CachedFullPruning) },
		func() { one.Execute(q, core.CachedFullPruning) })
	m["shard.n1_overhead_frac"] = ratio(sh, pl) - 1
}
