package core

import (
	"fmt"
	"hash/fnv"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/query"
	"aggcache/internal/table"
	"aggcache/internal/txn"
)

// MaintenanceMode selects a classical materialized-view maintenance
// strategy — the baselines of paper Sec. 6.1.
type MaintenanceMode uint8

const (
	// Eager maintains the view synchronously inside every write ([2]).
	Eager MaintenanceMode = iota
	// Lazy logs writes and maintains the view before it is read ([32]).
	Lazy
)

// String implements fmt.Stringer.
func (m MaintenanceMode) String() string {
	switch m {
	case Eager:
		return "eager-incremental"
	case Lazy:
		return "lazy-incremental"
	}
	return fmt.Sprintf("MaintenanceMode(%d)", uint8(m))
}

// MaterializedView is a classical incrementally maintained materialized
// aggregate over a single-table query, backed by a summary table inside the
// engine — the way OLTP applications traditionally maintain predefined
// summary tables ([14, 25] in the paper). Unlike the aggregate cache, it is
// defined across main and delta and must be maintained transactionally for
// every base-table change: eagerly within each write, or lazily from a log
// before each read. That transactional read-modify-write per group is the
// maintenance overhead the Sec. 6.1 experiment measures.
type MaterializedView struct {
	db   *table.DB
	q    *query.Query
	mode MaintenanceMode
	// tbl is the summary table: gid (PK), one column per grouping
	// attribute, one float64 accumulator per aggregate, and COUNT(*).
	tbl      *table.Table
	keyIndex map[string]int64
	nextGID  int64
	// pending holds logged rows awaiting lazy maintenance; sign -1 logs a
	// delete.
	pending []pendingRow
	// Maintained counts rows applied to the view.
	Maintained int64
}

type pendingRow struct {
	vals []column.Value
	sign int
}

// NewMaterializedView creates the summary table and computes its initial
// state over all stores of the query's single base table.
func NewMaterializedView(db *table.DB, q *query.Query, mode MaintenanceMode) (*MaterializedView, error) {
	if err := q.Validate(db); err != nil {
		return nil, err
	}
	if len(q.Tables) != 1 {
		return nil, fmt.Errorf("core: materialized view over %d tables unsupported", len(q.Tables))
	}
	if !q.SelfMaintainable() {
		return nil, fmt.Errorf("core: materialized view requires self-maintainable aggregates")
	}

	base := db.MustTable(q.Tables[0]).Schema()
	cols := []table.ColumnDef{{Name: "gid", Kind: column.Int64}}
	for i, g := range q.GroupBy {
		cols = append(cols, table.ColumnDef{
			Name: fmt.Sprintf("key_%d", i),
			Kind: base.Cols[base.MustColIndex(g.Col)].Kind,
		})
	}
	for i := range q.Aggs {
		cols = append(cols, table.ColumnDef{Name: fmt.Sprintf("acc_%d", i), Kind: column.Float64})
	}
	cols = append(cols, table.ColumnDef{Name: "cnt", Kind: column.Int64})

	h := fnv.New32a()
	h.Write([]byte(q.Fingerprint()))
	h.Write([]byte(mode.String()))
	tbl, err := db.Create(table.Schema{
		Name: fmt.Sprintf("mv$%s$%08x", q.Tables[0], h.Sum32()),
		Cols: cols,
		PK:   "gid",
	})
	if err != nil {
		return nil, err
	}
	v := &MaterializedView{
		db: db, q: q, mode: mode, tbl: tbl,
		keyIndex: make(map[string]int64), nextGID: 1,
	}

	// Initial state: aggregate the base table and persist the groups.
	ex := &query.Executor{DB: db}
	initial, _, err := ex.ExecuteAll(q, db.Txns().ReadSnapshot(), nil)
	if err != nil {
		return nil, err
	}
	tx := db.Txns().Begin()
	for _, r := range initial.Rows() {
		if err := v.insertGroup(tx, r.Keys, rowAccums(q.Aggs, r), r.Count); err != nil {
			tx.Abort()
			return nil, err
		}
	}
	tx.Commit()
	return v, nil
}

// rowAccums converts finalized result aggregates back to raw accumulators.
func rowAccums(specs []query.AggSpec, r query.Row) []float64 {
	accs := make([]float64, len(specs))
	for i, s := range specs {
		switch s.Func {
		case query.Sum:
			accs[i] = r.Aggs[i].F
		case query.Count:
			accs[i] = float64(r.Aggs[i].I)
		case query.Avg:
			accs[i] = r.Aggs[i].F * float64(r.Count)
		}
	}
	return accs
}

// insertGroup persists a new group row under the given transaction and
// registers it in the key index.
func (v *MaterializedView) insertGroup(tx *txn.Txn, keys []column.Value, accs []float64, count int64) error {
	gid := v.nextGID
	v.nextGID++
	row := make([]column.Value, 0, 2+len(keys)+len(accs))
	row = append(row, column.IntV(gid))
	row = append(row, keys...)
	for _, a := range accs {
		row = append(row, column.FloatV(a))
	}
	row = append(row, column.IntV(count))
	if _, err := v.tbl.Insert(tx, row); err != nil {
		return err
	}
	ek := query.EncodeGroupKey(keys)
	v.keyIndex[ek] = gid
	tx.OnAbort(func() { delete(v.keyIndex, ek) })
	return nil
}

// Mode returns the maintenance mode.
func (v *MaterializedView) Mode() MaintenanceMode { return v.mode }

// Table exposes the backing summary table (for inspection and tests).
func (v *MaterializedView) Table() *table.Table { return v.tbl }

// PendingRows reports the lazy maintenance backlog.
func (v *MaterializedView) PendingRows() int { return len(v.pending) }

// OnInsert notifies the view of a newly inserted base-table row (values
// ordered per the table schema). Eager mode maintains the summary table
// immediately — the transactional cost charged to every insert; lazy mode
// logs the row.
func (v *MaterializedView) OnInsert(vals []column.Value) error {
	return v.onWrite(vals, +1)
}

// OnDelete notifies the view of a deleted base-table row.
func (v *MaterializedView) OnDelete(vals []column.Value) error {
	return v.onWrite(vals, -1)
}

func (v *MaterializedView) onWrite(vals []column.Value, sign int) error {
	if v.mode == Lazy {
		v.pending = append(v.pending, pendingRow{vals: append([]column.Value(nil), vals...), sign: sign})
		return nil
	}
	return v.apply(vals, sign)
}

// ReadRows answers a query from the view the way an application reads a
// summary table: drain the lazy log, then scan the visible group rows
// straight into finalized result rows. Visible rows are unique per group
// (updates invalidate the prior version), so no re-grouping is needed.
func (v *MaterializedView) ReadRows() ([]query.Row, error) {
	for _, p := range v.pending {
		if err := v.apply(p.vals, p.sign); err != nil {
			return nil, err
		}
	}
	v.pending = v.pending[:0]

	snap := v.db.Txns().ReadSnapshot()
	nKeys := len(v.q.GroupBy)
	nAggs := len(v.q.Aggs)
	var out []query.Row
	// Bulk-allocate the value backing arrays: one slab per read, not one
	// per row.
	est := len(v.keyIndex)
	keySlab := make([]column.Value, 0, est*nKeys)
	aggSlab := make([]column.Value, 0, est*nAggs)
	for _, p := range v.tbl.Partitions() {
		for _, st := range p.Stores() {
			for row := 0; row < st.Rows(); row++ {
				if !snap.Sees(st.CreateTID(row), st.InvalidTID(row)) {
					continue
				}
				if len(keySlab)+nKeys > cap(keySlab) {
					keySlab = make([]column.Value, 0, (est+1)*nKeys)
					aggSlab = make([]column.Value, 0, (est+1)*nAggs)
				}
				keySlab = keySlab[:len(keySlab)+nKeys]
				aggSlab = aggSlab[:len(aggSlab)+nAggs]
				r := query.Row{
					Keys:  keySlab[len(keySlab)-nKeys:],
					Aggs:  aggSlab[len(aggSlab)-nAggs:],
					Count: st.Col(1 + nKeys + nAggs).Int64(row),
				}
				for i := 0; i < nKeys; i++ {
					r.Keys[i] = st.Col(1 + i).Value(row)
				}
				for i, a := range v.q.Aggs {
					acc := st.Col(1 + nKeys + i).Value(row).F
					switch a.Func {
					case query.Sum:
						r.Aggs[i] = column.FloatV(acc)
					case query.Count:
						r.Aggs[i] = column.IntV(int64(acc + 0.5))
					case query.Avg:
						r.Aggs[i] = column.FloatV(acc / float64(r.Count))
					}
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// Read returns the up-to-date view extent by draining the lazy log and then
// scanning the summary table's visible group rows into a result — the work
// a query answered from a materialized view performs.
func (v *MaterializedView) Read() (*query.AggTable, error) {
	for _, p := range v.pending {
		if err := v.apply(p.vals, p.sign); err != nil {
			return nil, err
		}
	}
	v.pending = v.pending[:0]

	out := query.NewAggTable(v.q.Aggs)
	snap := v.db.Txns().ReadSnapshot()
	nKeys := len(v.q.GroupBy)
	nAggs := len(v.q.Aggs)
	keys := make([]column.Value, nKeys)
	accs := make([]float64, nAggs)
	for _, p := range v.tbl.Partitions() {
		for _, st := range p.Stores() {
			for row := 0; row < st.Rows(); row++ {
				if !snap.Sees(st.CreateTID(row), st.InvalidTID(row)) {
					continue
				}
				for i := 0; i < nKeys; i++ {
					keys[i] = st.Col(1 + i).Value(row)
				}
				for i := 0; i < nAggs; i++ {
					accs[i] = st.Col(1 + nKeys + i).Value(row).F
				}
				out.AddGroup(keys, accs, st.Col(1+nKeys+nAggs).Int64(row))
			}
		}
	}
	return out, nil
}

// apply folds one base-table row into the summary table: evaluate the
// view's filter against the row, then transactionally update (or create,
// or remove) the group row it belongs to.
func (v *MaterializedView) apply(vals []column.Value, sign int) error {
	tname := v.q.Tables[0]
	sch := v.db.MustTable(tname).Schema()
	src := oneRow(vals)
	pred := v.q.Filters[tname]
	if pred == nil {
		pred = expr.True{}
	}
	bound, err := pred.Bind(sch.ColIndex, src)
	if err != nil {
		return err
	}
	if !bound.Eval(0) {
		return nil
	}
	keys := make([]column.Value, len(v.q.GroupBy))
	for i, g := range v.q.GroupBy {
		keys[i] = vals[sch.MustColIndex(g.Col)]
	}
	deltas := make([]float64, len(v.q.Aggs))
	for i, a := range v.q.Aggs {
		switch a.Func {
		case query.Sum, query.Avg:
			deltas[i] = vals[sch.MustColIndex(a.Col.Col)].Float()
		case query.Count:
			deltas[i] = 1
		}
	}
	ek := query.EncodeGroupKey(keys)
	tx := v.db.Txns().Begin()
	gid, exists := v.keyIndex[ek]
	nKeys := len(keys)
	switch {
	case exists:
		ref, ok := v.tbl.LookupPK(gid)
		if !ok {
			tx.Abort()
			return fmt.Errorf("core: summary group %d vanished", gid)
		}
		cnt := v.tbl.Get(ref, 1+nKeys+len(deltas)).I + int64(sign)
		if cnt == 0 {
			if err := v.tbl.Delete(tx, gid); err != nil {
				tx.Abort()
				return err
			}
			delete(v.keyIndex, ek)
			break
		}
		set := make(map[string]column.Value, len(deltas)+1)
		for i, d := range deltas {
			cur := v.tbl.Get(ref, 1+nKeys+i).F
			set[fmt.Sprintf("acc_%d", i)] = column.FloatV(cur + float64(sign)*d)
		}
		set["cnt"] = column.IntV(cnt)
		if err := v.tbl.Update(tx, gid, set); err != nil {
			tx.Abort()
			return err
		}
	case sign > 0:
		if err := v.insertGroup(tx, keys, deltas, 1); err != nil {
			tx.Abort()
			return err
		}
	default:
		tx.Abort()
		return fmt.Errorf("core: delete for unknown summary group")
	}
	tx.Commit()
	v.Maintained++
	return nil
}

// oneRow adapts a row of values to the expr.RowSource interface so the
// view's filter can be evaluated against an in-flight insert.
type oneRow []column.Value

// Col implements expr.RowSource: column i holds a single value.
func (r oneRow) Col(i int) column.Reader { return oneValue{v: r[i]} }

type oneValue struct{ v column.Value }

func (c oneValue) Kind() column.Kind      { return c.v.K }
func (c oneValue) Len() int               { return 1 }
func (c oneValue) Value(int) column.Value { return c.v }
func (c oneValue) Int64(int) int64 {
	if c.v.K != column.Int64 {
		panic("core: Int64 on non-int64 value")
	}
	return c.v.I
}
func (c oneValue) DictLen() int                  { return 1 }
func (c oneValue) ID(int) uint32                 { return 0 }
func (c oneValue) DictValue(uint32) column.Value { return c.v }
func (c oneValue) MinMax() (column.Value, column.Value, bool) {
	return c.v, c.v, true
}
func (c oneValue) MemBytes() uint64 { return 0 }
