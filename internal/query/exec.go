package query

import (
	"fmt"
	"log/slog"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/obs"
	"aggcache/internal/table"
	"aggcache/internal/txn"
	"aggcache/internal/vec"
)

// StoreRef names one physical store of a table: partition index plus
// main/delta side. While an online merge is running on the partition, a
// third store exists — the delta2 write-coalescing store new writes land
// in — addressed by D2; such refs are transient (the swap turns delta2
// into the partition's delta).
type StoreRef struct {
	Table string
	Part  int
	Main  bool
	D2    bool
}

// String implements fmt.Stringer, e.g. "Item[0].delta".
func (r StoreRef) String() string {
	side := "delta"
	if r.Main {
		side = "main"
	} else if r.D2 {
		side = "delta2"
	}
	return fmt.Sprintf("%s[%d].%s", r.Table, r.Part, side)
}

// Resolve returns the referenced physical store.
func (r StoreRef) Resolve(db *table.DB) *table.Store { return r.ResolveIn(db.MustTable(r.Table)) }

// ResolveIn returns the referenced physical store of t, the handle of the
// table r names — for callers that resolved the table once.
func (r StoreRef) ResolveIn(t *table.Table) *table.Store {
	p := t.Partition(r.Part)
	if r.Main {
		return p.Main
	}
	if r.D2 {
		return p.Delta2
	}
	return p.Delta
}

// Combo assigns one store to every table of a query (aligned with
// Query.Tables) — one subjoin of the partition-combination union.
type Combo []StoreRef

// IsAllMain reports whether every store of the combo is a main store; those
// subjoins are exactly what the aggregate cache precomputes.
func (c Combo) IsAllMain() bool {
	for _, r := range c {
		if !r.Main {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (c Combo) String() string {
	s := ""
	for i, r := range c {
		if i > 0 {
			s += " x "
		}
		s += r.String()
	}
	return s
}

// Stats accumulates execution counters; the experiments use them to report
// subjoin pruning effectiveness. Every field is deterministic for a given
// query and database state — independent of worker count and scheduling —
// so parallel and sequential execution produce identical Stats.
type Stats struct {
	// Subjoins is the number of subjoin combinations considered.
	Subjoins int
	// Executed is the number of subjoins actually evaluated.
	Executed int
	// PrunedEmpty counts subjoins skipped because a store was empty.
	PrunedEmpty int
	// PrunedMD counts subjoins pruned by the matching-dependency
	// prefilter.
	PrunedMD int
	// PrunedScan counts subjoins skipped because a store's dictionary
	// ranges prove a local filter unsatisfiable (dynamic partition
	// pruning, paper Def. 1 / Example 1).
	PrunedScan int
	// Pushdowns counts subjoins executed with derived tid-range filters.
	Pushdowns int
	// RowsScanned counts rows inspected by scans.
	RowsScanned int64
	// ScanVecRows counts rows inspected through the word-at-a-time scan —
	// every scanned row, so it equals RowsScanned.
	ScanVecRows int64
	// ScanScalarRows is always 0: every scan evaluates a word at a time. The
	// field stays only because the benchmark harness reads it; it goes when
	// the harness moves to the engine's public surface (ROADMAP item 8).
	ScanScalarRows int64
	// TuplesJoined counts join result tuples aggregated.
	TuplesJoined int64
	// RecycledSubjoins counts subjoins served entirely from the recycler
	// cache (exact watermark hit: no scan, no join, no aggregation).
	RecycledSubjoins int
	// RecycledTopups counts subjoins seeded from a recycler entry at an
	// older tid-watermark and topped up by scanning only the rows that
	// became visible since.
	RecycledTopups int
}

// Add folds another stats record into s.
func (s *Stats) Add(o Stats) {
	s.Subjoins += o.Subjoins
	s.Executed += o.Executed
	s.PrunedEmpty += o.PrunedEmpty
	s.PrunedMD += o.PrunedMD
	s.PrunedScan += o.PrunedScan
	s.Pushdowns += o.Pushdowns
	s.RowsScanned += o.RowsScanned
	s.ScanVecRows += o.ScanVecRows
	s.ScanScalarRows += o.ScanScalarRows
	s.TuplesJoined += o.TuplesJoined
	s.RecycledSubjoins += o.RecycledSubjoins
	s.RecycledTopups += o.RecycledTopups
}

// Executor evaluates aggregate queries against a database. It is a pure
// mechanism: callers (the aggregate cache manager) decide which subjoins to
// run and which extra filters to push down.
type Executor struct {
	DB *table.DB
	// Events receives subjoin-level lifecycle events (dictionary-based scan
	// pruning); nil disables them.
	Events *obs.EventLog
	// Workers caps the number of goroutines ExecuteJobs may use; 0 means
	// GOMAXPROCS. With one worker (or one job) execution is inline on the
	// calling goroutine.
	Workers int
	// ParallelSubjoins counts subjoins executed on pool workers; nil
	// discards the count. It is an observability counter rather than a
	// Stats field because its value depends on the worker count.
	ParallelSubjoins *obs.Counter
	// Builds, when non-nil, is a cross-query cache of store-side join
	// builds (the recycler). Batches consult it through the
	// per-batch build memo; a miss populates it. Build reuse never
	// changes results or Stats — a cached table is only served when its
	// candidate row set is byte-identical to what a fresh scan produced.
	Builds BuildSource
}

// executeCombo runs one subjoin — the query restricted to the given store
// per table — under the snapshot, with all buffers drawn from scr:
// word-at-a-time scans per table, a chain of value-ID joins over reused
// tuple buffers, and the aggregation fold into out. extra holds additional
// per-table local filters (the pushed-down tid ranges), conjoined with the
// query's own filters. restrict, when non-nil, replaces snapshot visibility
// per table with an explicit row set (nil entries keep visibility). memo,
// when non-nil, shares store-side builds across the jobs of one batch (and,
// through it, across queries).
//
// When sp is non-nil it records the subjoin's execution as span attributes
// and child spans — one timed span per store scan with its sizes, the
// verdict, the join plan (join-order, e.g.
// "Item[0].delta>Header[0].main(build=tuples)"), and the join result size.
// A nil sp (the common case) costs nothing: span names and the plan are
// rendered only when tracing. The verdict is one of:
//
//	pruned-scan  the store's dictionary ranges proved a filter unsatisfiable
//	executed     the subjoin ran (possibly contributing zero tuples)
func (e *Executor) executeCombo(scr *execScratch, q *Query, combo Combo, snap txn.Snapshot, extra map[string]expr.Pred, restrict []*vec.BitSet, out *AggTable, st *Stats, sp *obs.Span, memo *buildMemo) error {
	if len(combo) != len(q.Tables) {
		return fmt.Errorf("query: combo has %d stores for %d tables", len(combo), len(q.Tables))
	}
	if restrict != nil && len(restrict) != len(q.Tables) {
		return fmt.Errorf("query: restrict has %d sets for %d tables", len(restrict), len(q.Tables))
	}
	st.Executed++

	// Scan phase: visible rows passing the local filters, per table.
	scr.ensureTables(len(combo))
	for i, ref := range combo {
		tbl := e.DB.MustTable(ref.Table)
		store := ref.Resolve(e.DB)
		scr.stores[i] = store
		pred := expr.NewAnd(q.Filters[ref.Table], extra[ref.Table])
		// Dynamic partition pruning: if the store's dictionary ranges
		// prove the local filter unsatisfiable, the subjoin is empty
		// without scanning a row (paper Example 1).
		if dictionaryPrunes(pred, store, tbl.Schema()) {
			st.PrunedScan++
			sp.Attr("verdict", "pruned-scan")
			sp.Attr("pruned-by", ref.String()+" dictionary vs "+pred.String())
			if e.Events.Enabled() {
				e.Events.Emit("subjoins.pruned_scan",
					slog.String("query", q.Fingerprint()), slog.String("combo", combo.String()),
					slog.String("store", ref.String()), slog.String("filter", pred.String()))
			}
			return nil
		}
		var ss *obs.Span // the scan's own span: opened here, ended after scanStore
		if sp != nil {
			ss = sp.Child("scan " + ref.String())
		}
		var rows []int32
		var scanned int64
		if store.Rows() > 0 {
			bound, err := pred.Bind(tbl.Schema().ColIndex, store)
			if err != nil {
				ss.End()
				return err
			}
			var set *vec.BitSet
			if restrict != nil {
				set = restrict[i]
			}
			rows, scanned = scr.scanStore(store, snap, set, bound, scr.rowBufs[i])
			scr.rowBufs[i] = rows
		}
		ss.End()
		st.RowsScanned += scanned
		st.ScanVecRows += scanned
		ss.AttrInt("scanned", scanned)
		ss.AttrInt("matched", int64(len(rows)))
		if len(rows) == 0 {
			sp.Attr("verdict", "executed")
			return nil // empty input: subjoin contributes nothing
		}
		scr.rowsPer[i] = rows
	}

	// Join phase. Build-side reuse is only sound when this job's candidate
	// rows are the batch-common ones, so an explicit row restriction turns
	// the memo off (joinPhase checks the per-table pushdown filters).
	sp.Attr("verdict", "executed")
	if restrict != nil {
		memo = nil
	}
	tupleCols, n, err := e.joinPhase(scr, q, combo, extra, memo, sp)
	if err != nil || n == 0 {
		return err // an empty join contributes nothing
	}
	st.TuplesJoined += int64(n)
	sp.AttrInt("tuples", int64(n))

	// Aggregation phase: the group-by kernel over the tuple columns.
	scr.keyCols, scr.keyRows = scr.keyCols[:0], scr.keyRows[:0]
	for _, g := range q.GroupBy {
		p := tablePos(q, g.Table)
		c, err := colReader(e.DB, scr.stores[p], g)
		if err != nil {
			return err
		}
		scr.keyCols = append(scr.keyCols, c)
		scr.keyRows = append(scr.keyRows, tupleCols[p])
	}
	scr.aggCols, scr.aggRows = scr.aggCols[:0], scr.aggRows[:0]
	for _, a := range q.Aggs {
		if a.Col.Col == "" { // COUNT(*)
			scr.aggCols = append(scr.aggCols, nil)
			scr.aggRows = append(scr.aggRows, nil)
			continue
		}
		p := tablePos(q, a.Col.Table)
		c, err := colReader(e.DB, scr.stores[p], a.Col)
		if err != nil {
			return err
		}
		scr.aggCols = append(scr.aggCols, c)
		scr.aggRows = append(scr.aggRows, tupleCols[p])
	}
	mode, groups := scr.gb.aggregate(q.Aggs, scr.keyCols, scr.keyRows, scr.aggCols, scr.aggRows, n, out)
	if sp != nil {
		sp.Attr("agg", mode.String())
		sp.AttrInt("groups", int64(groups))
	}
	return nil
}

// joinPhase joins the scanned candidate rows (scr.rowsPer, over scr.stores)
// smallest input first: planJoin fixes the order, and each step builds its
// CSR on the smaller side. The returned tuple columns are indexed by query
// table position, so the aggregation never sees the order; n is the number
// of joined tuples, 0 when a step left the tuple set empty (the span's
// empty-after-join names that step's edge). memo, when non-nil, may serve
// store-side builds of tables without a pushdown filter in extra. A step
// whose two join columns differ in kind is an error, the one Validate
// reports: value IDs of different kinds cannot be translated.
func (e *Executor) joinPhase(scr *execScratch, q *Query, combo Combo, extra map[string]expr.Pred, memo *buildMemo, sp *obs.Span) (tupleCols [][]int32, n int, err error) {
	start, steps, err := scr.planJoin(e.DB, q)
	if err != nil {
		return nil, 0, err
	}
	tupleCols = scr.tupleRefs[1][:0]
	for range combo {
		tupleCols = append(tupleCols, nil)
	}
	tupleCols[start] = scr.rowsPer[start]
	scr.tupleRefs[1] = tupleCols
	order := append(scr.order[:0], start)
	var plan []byte // the join-order span attribute; traced runs only
	if sp != nil {
		plan = append(plan, combo[start].String()...)
	}
	var empty *JoinEdge
	for si, s := range steps {
		fromCol, err := colReader(e.DB, scr.stores[s.from], s.fromCol)
		if err != nil {
			return nil, 0, err
		}
		col, err := colReader(e.DB, scr.stores[s.pos], s.col)
		if err != nil {
			return nil, 0, err
		}
		if fromCol.Kind() != col.Kind() {
			// Validate refuses this; a query run without it must not join
			// value IDs of two different kinds.
			edge := q.Joins[s.edge]
			lk, rk := fromCol.Kind(), col.Kind()
			if s.col == edge.Left {
				lk, rk = rk, lk
			}
			return nil, 0, fmt.Errorf("query: join %s compares %v with %v", edge, lk, rk)
		}
		rows := scr.rowsPer[s.pos]
		buildTuples := len(tupleCols[start]) < len(rows)
		var shared *BuildTable
		if !buildTuples && memo != nil && extra[combo[s.pos].Table] == nil {
			shared = memo.acquire(s.edge, combo[s.pos], scr.stores[s.pos], col, rows)
		}
		if sp != nil {
			plan = append(plan, '>')
			plan = append(plan, combo[s.pos].String()...)
			if buildTuples {
				plan = append(plan, "(build=tuples)"...)
			} else {
				plan = append(plan, "(build=store)"...)
			}
		}
		tupleCols = scr.join(si, tupleCols, order, s.from, fromCol, s.pos, rows, col, buildTuples, shared)
		order = append(order, s.pos)
		if len(tupleCols[start]) == 0 {
			empty = &q.Joins[s.edge]
			break
		}
	}
	scr.order = order
	if sp != nil && len(steps) > 0 {
		sp.Attr("join-order", string(plan))
	}
	if empty != nil {
		sp.Attr("empty-after-join", empty.String())
		return tupleCols, 0, nil
	}
	return tupleCols, len(tupleCols[start]), nil
}

// tablePos resolves a table name to its position in the query's table list.
// Queries join a handful of tables, so a linear search beats building a map
// per subjoin.
func tablePos(q *Query, name string) int {
	for i, t := range q.Tables {
		if t == name {
			return i
		}
	}
	return -1
}

// dictionaryPrunes evaluates the predicate against the store's dictionary
// min/max ranges.
func dictionaryPrunes(pred expr.Pred, st *table.Store, sch *table.Schema) bool {
	if _, isTrue := pred.(expr.True); isTrue {
		return false
	}
	return expr.ProvablyEmpty(pred, func(col string) (column.Value, column.Value, bool) {
		ci := sch.ColIndex(col)
		if ci < 0 {
			return column.Value{}, column.Value{}, false
		}
		return st.Col(ci).MinMax()
	})
}

func colReader(db *table.DB, st *table.Store, ref ColRef) (column.Reader, error) {
	sch := db.MustTable(ref.Table).Schema()
	i := sch.ColIndex(ref.Col)
	if i < 0 {
		return nil, fmt.Errorf("query: unknown column %s", ref)
	}
	return st.Col(i), nil
}

// AllCombos enumerates every subjoin combination of the query: the
// cartesian product, over the query's tables, of each table's physical
// stores (every partition contributes its main and its delta). For t
// single-partition tables this yields the 2^t subjoins of paper Sec. 2.3.1.
func AllCombos(db *table.DB, q *Query) []Combo {
	perTable := make([][]StoreRef, len(q.Tables))
	for i, name := range q.Tables {
		t := db.MustTable(name)
		for pi, p := range t.Partitions() {
			perTable[i] = append(perTable[i],
				StoreRef{Table: name, Part: pi, Main: true},
				StoreRef{Table: name, Part: pi, Main: false},
			)
			if p.Delta2 != nil {
				// An online merge is running on this partition: rows that
				// coalesced in delta2 are part of the consistent view.
				perTable[i] = append(perTable[i], StoreRef{Table: name, Part: pi, D2: true})
			}
		}
	}
	var out []Combo
	combo := make(Combo, len(q.Tables))
	var rec func(i int)
	rec = func(i int) {
		if i == len(perTable) {
			out = append(out, append(Combo(nil), combo...))
			return
		}
		for _, ref := range perTable[i] {
			combo[i] = ref
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// ExecuteAll evaluates the query over all subjoin combinations — query
// processing without the aggregate cache (paper Sec. 2.3.1). When sp is
// non-nil every subjoin records a child span under it. The subjoins are
// independent, so they run through the worker pool; results merge in combo
// order, keeping the output identical for every worker count.
func (e *Executor) ExecuteAll(q *Query, snap txn.Snapshot, sp *obs.Span) (*AggTable, Stats, error) {
	out := NewAggTable(q.Aggs)
	var st Stats
	combos := AllCombos(e.DB, q)
	jobs := make([]ComboJob, len(combos))
	for i, combo := range combos {
		st.Subjoins++
		jobs[i] = ComboJob{Combo: combo}
		if sp != nil {
			jobs[i].Span = sp.Child(combo.String())
		}
	}
	if w := e.ParallelWorkers(len(jobs)); w > 0 {
		sp.AttrInt("workers", int64(w))
	}
	if err := e.ExecuteJobs(q, jobs, snap, out, &st, nil); err != nil {
		return nil, st, err
	}
	return out, st, nil
}
