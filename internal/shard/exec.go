package shard

import (
	"fmt"
	"time"

	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/expr"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/table"
)

// PruneReason classifies why a whole shard was skipped before dispatch.
type PruneReason int

const (
	// PruneNone means the shard was dispatched.
	PruneNone PruneReason = iota
	// PruneEmpty means a table the query references holds no rows on the
	// shard, so every subjoin combination there is empty.
	PruneEmpty
	// PruneMD means a matching-dependency tid-range prefilter proves the
	// shard-wide join empty: the parent and child tid ranges, taken over
	// all the shard's stores, are disjoint (paper Eq. 5 lifted from store
	// pairs to whole shards).
	PruneMD
	// PruneScan means a query filter is unsatisfiable against the shard's
	// column ranges (dynamic partition pruning, paper Def. 1, applied at
	// shard granularity).
	PruneScan
)

var pruneNames = [...]string{"none", "empty", "md", "scan"}

// String names the reason for span attributes and debug output.
func (p PruneReason) String() string { return pruneNames[p] }

// ExecInfo reports one scatter-gather execution: the dispatch/prune split,
// the delta-locality of the query, and the folded execution statistics.
type ExecInfo struct {
	Strategy core.Strategy
	// Scattered counts shards dispatched; Pruned counts shards skipped
	// before dispatch, split by reason.
	Scattered, Pruned                 int
	PrunedEmpty, PrunedMD, PrunedScan int
	// DeltaShards counts shards holding delta rows of a referenced table;
	// SingleDeltaShard is true when at most one does — the collapsed case
	// the object-aware insert stream is designed to hit.
	DeltaShards      int
	SingleDeltaShard bool
	// Reasons records the per-shard prune verdict in shard order.
	Reasons []PruneReason
	// PerShard holds each dispatched shard's manager-level ExecInfo (zero
	// value for pruned shards).
	PerShard []core.ExecInfo
	// Stats is the shard-order fold of the per-shard execution statistics.
	Stats query.Stats
	// CacheHits counts shards answered from their cache entry.
	CacheHits int
	// Total is the scatter-gather wall clock.
	Total time.Duration
}

// Execute scatters the query across the shards and gathers the per-shard
// aggregation tables into one result.
//
// Shard-order fold invariant: per-shard results are folded in ascending
// shard index, the mirror of the worker-order fold inside
// query.ExecuteJobs (per-job tables merged in job-index order). Together
// the two give byte-identical results and statistics at any
// (shard count x worker count) combination for a fixed shard count, and
// byte-identical results across shard counts — the aggregates are
// additively mergeable and the workloads keep float sums exact.
func (s *Sharded) Execute(q *query.Query, strat core.Strategy) (*query.AggTable, ExecInfo, error) {
	return s.ExecuteSpan(q, strat, nil)
}

// ExecuteSpan is Execute with an optional parent span. With a span, the
// per-shard dispatch and prune verdicts are recorded as its attributes, and
// every dispatched shard runs through Manager.ExplainAnalyze, whose root
// span (cache-lookup verdict, compensation, one span per subjoin) is
// appended to the parent's children in shard order.
func (s *Sharded) ExecuteSpan(q *query.Query, strat core.Strategy, sp *obs.Span) (*query.AggTable, ExecInfo, error) {
	start := time.Now()
	// Warm the memoized fingerprint and shape before the query is shared
	// across shard goroutines.
	q.Fingerprint()
	q.Shape()

	info := ExecInfo{
		Strategy: strat,
		Reasons:  make([]PruneReason, len(s.mgrs)),
		PerShard: make([]core.ExecInfo, len(s.mgrs)),
	}

	// Prune pass: inspect each shard's table-level ranges under its read
	// lock. The verdicts are per-shard snapshots, exactly as scattered
	// executions are; cross-shard reads are independently
	// snapshot-consistent (see DESIGN.md on the consistency model).
	dispatch := make([]int, 0, len(s.mgrs))
	for i := range s.mgrs {
		reason := s.pruneShard(i, q)
		info.Reasons[i] = reason
		if delta := s.shardHasDelta(i, q); delta {
			info.DeltaShards++
		}
		switch reason {
		case PruneNone:
			dispatch = append(dispatch, i)
		case PruneEmpty:
			info.PrunedEmpty++
		case PruneMD:
			info.PrunedMD++
		case PruneScan:
			info.PrunedScan++
		}
	}
	info.Scattered = len(dispatch)
	info.Pruned = len(s.mgrs) - len(dispatch)
	info.SingleDeltaShard = info.DeltaShards <= 1

	// Scatter: one goroutine per dispatched shard. Each shard's manager
	// fans its subjoin combinations into query.ExecuteJobs on its own
	// worker pool.
	results := make([]*query.AggTable, len(s.mgrs))
	errs := make([]error, len(s.mgrs))
	var spans []*obs.Span
	if sp != nil {
		spans = make([]*obs.Span, len(s.mgrs))
	}
	done := make(chan struct{}, len(dispatch))
	for _, i := range dispatch {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			if spans != nil {
				results[i], info.PerShard[i], spans[i], errs[i] = s.mgrs[i].ExplainAnalyze(q, strat)
				return
			}
			results[i], info.PerShard[i], errs[i] = s.mgrs[i].Execute(q, strat)
		}(i)
	}
	for range dispatch {
		<-done
	}
	for _, i := range dispatch {
		if errs[i] != nil {
			err := fmt.Errorf("shard %d: %w", i, errs[i])
			info.Total = time.Since(start)
			s.observe(q, dispatch, &info, err)
			return nil, info, err
		}
	}

	// Gather: fold per-shard tables and statistics in shard order.
	out := query.NewAggTable(q.Aggs)
	for _, i := range dispatch {
		out.Merge(results[i])
		info.Stats.Add(info.PerShard[i].Stats)
		if info.PerShard[i].CacheHit {
			info.CacheHits++
		}
	}
	info.Total = time.Since(start)
	s.observe(q, dispatch, &info, nil)

	s.obs.queries.Inc()
	s.obs.scattered.Add(int64(info.Scattered))
	s.obs.pruned.Add(int64(info.Pruned))
	s.obs.prunedEmpty.Add(int64(info.PrunedEmpty))
	s.obs.prunedMD.Add(int64(info.PrunedMD))
	s.obs.prunedScan.Add(int64(info.PrunedScan))
	s.obs.deltaShards.Add(int64(info.DeltaShards))
	if info.SingleDeltaShard {
		s.obs.deltaSingle.Inc()
	}

	if sp != nil {
		sp.AttrInt("shard.scattered", int64(info.Scattered))
		sp.AttrInt("shard.pruned", int64(info.Pruned))
		sp.AttrInt("shard.delta_shards", int64(info.DeltaShards))
		for i, reason := range info.Reasons {
			if reason != PruneNone {
				sp.Attr(fmt.Sprintf("shard.%d", i), "pruned:"+reason.String())
			}
		}
		for _, i := range dispatch {
			sp.Children = append(sp.Children, spans[i])
		}
	}
	return out, info, nil
}

// observe records one scatter, failed or not, into the cluster's SLO
// tracker and shape profiles: one sample per query at any shard count. The
// query is a hit (memo hit) only if every dispatched shard's execution was
// one; its compensation cost is the shards' sum.
func (s *Sharded) observe(q *query.Query, dispatch []int, info *ExecInfo, err error) {
	s.slo.Record(info.Total, err != nil)
	if !s.shapes.Enabled() {
		return
	}
	hit, memo := len(dispatch) > 0, len(dispatch) > 0
	var comp time.Duration
	var tuples int64
	for _, i := range dispatch {
		ps := &info.PerShard[i]
		hit = hit && ps.CacheHit
		memo = memo && ps.MemoHit
		comp += ps.DeltaComp
		tuples += ps.DeltaTuples
	}
	s.shapes.Observe(q.Shape(), info.Total, hit, memo, err != nil, int64(comp/time.Microsecond), tuples)
}

// pruneShard decides, before dispatch, whether shard i can contribute any
// row to the query. All checks read only dictionary min/max and row
// counts — never row data — under the shard's read lock.
func (s *Sharded) pruneShard(i int, q *query.Query) PruneReason {
	sh := s.cluster.Shard(i)
	sh.DB.RLock()
	defer sh.DB.RUnlock()

	// Empty prune: queries join their tables (inner joins only), so one
	// fully empty referenced table empties the whole shard.
	for _, name := range q.Tables {
		if tableRows(sh.DB.MustTable(name)) == 0 {
			return PruneEmpty
		}
	}

	// Scan prune: a filter unsatisfiable against the shard-level column
	// ranges (min/max over every store of the table) proves the shard
	// contributes nothing.
	for _, name := range q.Tables {
		pred, ok := q.Filters[name]
		if !ok {
			continue
		}
		t := sh.DB.MustTable(name)
		if expr.ProvablyEmpty(pred, func(col string) (column.Value, column.Value, bool) {
			idx := t.Schema().ColIndex(col)
			if idx < 0 {
				return column.Value{}, column.Value{}, false
			}
			return tableColRange(t, idx)
		}) {
			return PruneScan
		}
	}

	// MD prune: for every matching dependency joining two referenced
	// tables, disjoint shard-level tid ranges prove the shard-wide join
	// empty (the Eq. 5 prefilter with store pairs coarsened to whole
	// tables — sound because the table range bounds every store range).
	for _, m := range sh.Reg.All() {
		if !references(q, m.Parent) || !references(q, m.Child) {
			continue
		}
		if !joined(q, m.Parent, m.Child) {
			continue
		}
		pt, ct := sh.DB.MustTable(m.Parent), sh.DB.MustTable(m.Child)
		plo, phi, pok := tableColRangeI(pt, pt.Schema().MustColIndex(m.ParentTID))
		clo, chi, cok := tableColRangeI(ct, ct.Schema().MustColIndex(m.ChildTID))
		if pok && cok && (phi < clo || chi < plo) {
			return PruneMD
		}
	}
	return PruneNone
}

// shardHasDelta reports whether any referenced table holds delta rows on
// shard i — the delta-locality signal behind shard.delta_single.
func (s *Sharded) shardHasDelta(i int, q *query.Query) bool {
	sh := s.cluster.Shard(i)
	sh.DB.RLock()
	defer sh.DB.RUnlock()
	for _, name := range q.Tables {
		for _, p := range sh.DB.MustTable(name).Partitions() {
			if p.Delta.Rows() > 0 {
				return true
			}
			if p.Delta2 != nil && p.Delta2.Rows() > 0 {
				return true
			}
		}
	}
	return false
}

// references reports whether the query reads the named table.
func references(q *query.Query, name string) bool {
	for _, t := range q.Tables {
		if t == name {
			return true
		}
	}
	return false
}

// joined reports whether the query joins the two tables directly.
func joined(q *query.Query, a, b string) bool {
	for _, j := range q.Joins {
		if (j.Left.Table == a && j.Right.Table == b) || (j.Left.Table == b && j.Right.Table == a) {
			return true
		}
	}
	return false
}

// tableRows counts the physical rows of a table across all partitions and
// stores (main, delta, and an active merge's delta2).
func tableRows(t *table.Table) int {
	n := 0
	for _, p := range t.Partitions() {
		for _, st := range p.Stores() {
			n += st.Rows()
		}
	}
	return n
}

// tableColRange folds a column's dictionary min/max over every store of
// the table. ok is false when every store is empty.
func tableColRange(t *table.Table, col int) (lo, hi column.Value, ok bool) {
	for _, p := range t.Partitions() {
		for _, st := range p.Stores() {
			l, h, sok := st.Col(col).MinMax()
			if !sok {
				continue
			}
			if !ok || column.Less(l, lo) {
				lo = l
			}
			if !ok || column.Less(hi, h) {
				hi = h
			}
			ok = true
		}
	}
	return lo, hi, ok
}

// tableColRangeI is tableColRange for int64 columns (tid columns).
func tableColRangeI(t *table.Table, col int) (lo, hi int64, ok bool) {
	l, h, ok := tableColRange(t, col)
	if !ok {
		return 0, 0, false
	}
	return l.I, h.I, true
}
