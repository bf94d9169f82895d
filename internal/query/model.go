// Package query implements the aggregate-query engine over main-delta
// tables: the query model (joins, filters, grouping, aggregate functions),
// value-ID join execution against an arbitrary combination of physical stores,
// incremental-maintenance-capable aggregation tables, and the enumeration of
// the subjoin combinations the delta-compensation step must union (paper
// Sec. 2.3).
package query

import (
	"fmt"
	"sort"
	"strings"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/table"
)

// AggFunc is an aggregate function.
type AggFunc uint8

// Supported aggregate functions.
const (
	Sum AggFunc = iota
	Count
	Avg
	Min
	Max
)

// String implements fmt.Stringer.
func (f AggFunc) String() string {
	switch f {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(f))
}

// SelfMaintainable reports whether the function can be maintained
// incrementally under inserts and invalidations without re-reading the base
// data. Only queries whose aggregates are all self-maintainable qualify for
// the aggregate cache (paper Sec. 2.1).
func (f AggFunc) SelfMaintainable() bool {
	switch f {
	case Sum, Count, Avg:
		return true
	}
	return false
}

// ColRef names a column of one of the query's tables.
type ColRef struct {
	Table string
	Col   string
}

// String implements fmt.Stringer.
func (c ColRef) String() string { return c.Table + "." + c.Col }

// AggSpec is one aggregate output, e.g. SUM(Item.Price) AS Profit.
// For Count, Col.Col may be empty, meaning COUNT(*).
type AggSpec struct {
	Func AggFunc
	Col  ColRef
	As   string
}

// String implements fmt.Stringer.
func (a AggSpec) String() string {
	arg := "*"
	if a.Col.Col != "" {
		arg = a.Col.String()
	}
	return fmt.Sprintf("%s(%s)", a.Func, arg)
}

// JoinEdge is one equi-join condition. Right must be the table being added
// to the plan; Left must belong to a table joined earlier.
type JoinEdge struct {
	Left  ColRef
	Right ColRef
}

// String implements fmt.Stringer.
func (j JoinEdge) String() string { return j.Left.String() + " = " + j.Right.String() }

// Query is an aggregate query block: a linear join plan over Tables (edge i
// connects Tables[i+1] to an earlier table), per-table local filters, a
// grouping combination, and aggregate outputs. This mirrors the class of
// query blocks the aggregate cache admits.
type Query struct {
	Tables  []string
	Joins   []JoinEdge
	Filters map[string]expr.Pred
	GroupBy []ColRef
	Aggs    []AggSpec

	// fp/shape memoize Fingerprint and Shape; a query definition must not
	// be mutated after its first execution.
	fp    string
	shape string
}

// Validate checks the query against the database schema: tables exist, join
// endpoints are columns of matching kinds, grouping and aggregate columns
// exist, and numeric aggregates reference numeric columns.
func (q *Query) Validate(db *table.DB) error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("query: no tables")
	}
	pos := make(map[string]int, len(q.Tables))
	for i, name := range q.Tables {
		if db.Table(name) == nil {
			return fmt.Errorf("query: table %s does not exist", name)
		}
		if _, dup := pos[name]; dup {
			return fmt.Errorf("query: table %s referenced twice (self-joins unsupported)", name)
		}
		pos[name] = i
	}
	if len(q.Joins) != len(q.Tables)-1 {
		return fmt.Errorf("query: %d tables need %d join edges, got %d", len(q.Tables), len(q.Tables)-1, len(q.Joins))
	}
	for i, j := range q.Joins {
		lp, lok := pos[j.Left.Table]
		rp, rok := pos[j.Right.Table]
		if !lok || !rok {
			return fmt.Errorf("query: join %s references a table outside the query", j)
		}
		if rp != i+1 {
			return fmt.Errorf("query: join edge %d must add table %s, adds %s", i, q.Tables[i+1], j.Right.Table)
		}
		if lp > i {
			return fmt.Errorf("query: join %s references %s before it is joined", j, j.Left.Table)
		}
		lk, err := q.colKind(db, j.Left)
		if err != nil {
			return err
		}
		rk, err := q.colKind(db, j.Right)
		if err != nil {
			return err
		}
		if lk != rk {
			return fmt.Errorf("query: join %s compares %v with %v", j, lk, rk)
		}
	}
	for tname := range q.Filters {
		if _, ok := pos[tname]; !ok {
			return fmt.Errorf("query: filter on table %s outside the query", tname)
		}
		sch := db.Table(tname).Schema()
		for _, c := range q.Filters[tname].Columns() {
			if sch.ColIndex(c) < 0 {
				return fmt.Errorf("query: filter references unknown column %s.%s", tname, c)
			}
		}
	}
	for _, g := range q.GroupBy {
		if _, ok := pos[g.Table]; !ok {
			return fmt.Errorf("query: group-by %s outside the query", g)
		}
		if _, err := q.colKind(db, g); err != nil {
			return err
		}
	}
	if len(q.Aggs) == 0 {
		return fmt.Errorf("query: no aggregate outputs")
	}
	for _, a := range q.Aggs {
		if a.Col.Col == "" {
			if a.Func != Count {
				return fmt.Errorf("query: %s requires a column argument", a.Func)
			}
			continue
		}
		if _, ok := pos[a.Col.Table]; !ok {
			return fmt.Errorf("query: aggregate %s outside the query", a)
		}
		k, err := q.colKind(db, a.Col)
		if err != nil {
			return err
		}
		if (a.Func == Sum || a.Func == Avg) && k == column.String {
			return fmt.Errorf("query: %s over string column %s", a.Func, a.Col)
		}
	}
	return nil
}

func (q *Query) colKind(db *table.DB, c ColRef) (column.Kind, error) {
	sch := db.Table(c.Table).Schema()
	i := sch.ColIndex(c.Col)
	if i < 0 {
		return 0, fmt.Errorf("query: unknown column %s", c)
	}
	return sch.Cols[i].Kind, nil
}

// SelfMaintainable reports whether every aggregate of the query is
// self-maintainable — the admittance precondition of the aggregate cache.
func (q *Query) SelfMaintainable() bool {
	for _, a := range q.Aggs {
		if !a.Func.SelfMaintainable() {
			return false
		}
	}
	return true
}

// Fingerprint renders a canonical identifier of the query definition —
// tables, joins, filters, grouping combination, and aggregates — which the
// aggregate cache uses as its cache key (paper Fig. 2). The result is
// memoized; do not mutate a query after executing it, and call this (and
// Shape) once before sharing a Query across goroutines — the first call
// writes the memo.
func (q *Query) Fingerprint() string {
	if q.fp != "" {
		return q.fp
	}
	var sb strings.Builder
	sb.WriteString("T[")
	sb.WriteString(strings.Join(q.Tables, ","))
	sb.WriteString("]J[")
	for i, j := range q.Joins {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(j.String())
	}
	sb.WriteString("]F[")
	names := make([]string, 0, len(q.Filters))
	for n := range q.Filters {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(n)
		sb.WriteByte(':')
		sb.WriteString(q.Filters[n].String())
	}
	sb.WriteString("]G[")
	for i, g := range q.GroupBy {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(g.String())
	}
	sb.WriteString("]A[")
	for i, a := range q.Aggs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(a.String())
	}
	sb.WriteByte(']')
	q.fp = sb.String()
	return q.fp
}

// Shape renders the query's normalized shape fingerprint: the same layout
// as Fingerprint, but with every filter literal elided to "?" (the P[...]
// section replaces F[...]), so queries differing only in their constants —
// ProfitQuery(2012) vs ProfitQuery(2013) — share one shape. This is the
// key of the per-shape profile table (obs.Shapes) and is stamped into
// spans, the decision ledger, and EXPLAIN ANALYZE. Memoized like
// Fingerprint, with the same sharing rule: warm it before concurrent use.
func (q *Query) Shape() string {
	if q.shape != "" {
		return q.shape
	}
	var sb strings.Builder
	sb.WriteString("T[")
	sb.WriteString(strings.Join(q.Tables, ","))
	sb.WriteString("]J[")
	for i, j := range q.Joins {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(j.String())
	}
	sb.WriteString("]P[")
	names := make([]string, 0, len(q.Filters))
	for n := range q.Filters {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(n)
		sb.WriteByte(':')
		sb.WriteString(expr.Shape(q.Filters[n]))
	}
	sb.WriteString("]G[")
	for i, g := range q.GroupBy {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(g.String())
	}
	sb.WriteString("]A[")
	for i, a := range q.Aggs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(a.String())
	}
	sb.WriteByte(']')
	q.shape = sb.String()
	return q.shape
}
