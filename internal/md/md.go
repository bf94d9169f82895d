// Package md implements matching dependencies (MDs) — the mechanism the
// paper uses to transport application object semantics into the database
// (paper Sec. 4.1, Sec. 5). An MD over (Parent, Child) states: if a child
// tuple matches a parent tuple on the FK/PK pair, the two agree on their
// tid columns as well (Eq. 6). Enforced at insert time, MDs enable
//
//   - dynamic join partition pruning: a subjoin of two stores is empty when
//     their tid ranges are disjoint (the Eq. 5 prefilter, evaluated from
//     dictionary min/max), and
//   - join predicate pushdown: when pruning fails, tid-range filters derived
//     from the other side's dictionary are pushed below the join (Sec. 5.3).
package md

import (
	"fmt"
	"slices"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/query"
	"aggcache/internal/table"
)

// MD is one matching dependency between a parent table (owning the primary
// key, e.g. Header) and a child table referencing it (e.g. Item):
//
//	child[FK] = parent[PK]  =>  child[ChildTID] = parent[ParentTID]
type MD struct {
	Parent    string
	ParentPK  string
	ParentTID string
	Child     string
	ChildFK   string
	ChildTID  string
}

// String implements fmt.Stringer.
func (m MD) String() string {
	return fmt.Sprintf("MD(%s[%s]=%s[%s] => %s[%s]=%s[%s])",
		m.Child, m.ChildFK, m.Parent, m.ParentPK, m.Child, m.ChildTID, m.Parent, m.ParentTID)
}

// validate checks the MD against the schema: all columns exist, tid columns
// are int64, join columns have matching kinds, and the parent join column
// is the table's primary key so at most one matching tuple exists — the
// precondition for setting the child tid at insert time (paper Sec. 5).
func (m MD) validate(db *table.DB) error {
	p := db.Table(m.Parent)
	c := db.Table(m.Child)
	if p == nil || c == nil {
		return fmt.Errorf("md: %s references a missing table", m)
	}
	ps, cs := p.Schema(), c.Schema()
	pkIdx, ptIdx := ps.ColIndex(m.ParentPK), ps.ColIndex(m.ParentTID)
	fkIdx, ctIdx := cs.ColIndex(m.ChildFK), cs.ColIndex(m.ChildTID)
	if pkIdx < 0 || ptIdx < 0 || fkIdx < 0 || ctIdx < 0 {
		return fmt.Errorf("md: %s references a missing column", m)
	}
	if ps.PK != m.ParentPK {
		return fmt.Errorf("md: %s requires %s to be the primary key of %s", m, m.ParentPK, m.Parent)
	}
	if ps.Cols[pkIdx].Kind != cs.Cols[fkIdx].Kind {
		return fmt.Errorf("md: %s joins %v with %v", m, ps.Cols[pkIdx].Kind, cs.Cols[fkIdx].Kind)
	}
	if ps.Cols[ptIdx].Kind != column.Int64 || cs.Cols[ctIdx].Kind != column.Int64 {
		return fmt.Errorf("md: %s tid columns must be int64", m)
	}
	return nil
}

// bound is an MD compiled against its database once, at Registry.Add: the
// table handles and column positions the per-insert and per-combo checks
// use, so neither looks a table up by name nor scans a schema for a
// column. A database never drops a table, so the handles stay valid.
type bound struct {
	MD
	parent, child *table.Table
	fkIdx, ctIdx  int // ChildFK, ChildTID in the child schema
	ptIdx         int // ParentTID in the parent schema
}

// bind resolves m against db; m must be valid there.
func (m MD) bind(db *table.DB) bound {
	p, c := db.MustTable(m.Parent), db.MustTable(m.Child)
	return bound{MD: m, parent: p, child: c,
		fkIdx: c.Schema().MustColIndex(m.ChildFK), ctIdx: c.Schema().MustColIndex(m.ChildTID),
		ptIdx: p.Schema().MustColIndex(m.ParentTID)}
}

// Registry holds the matching dependencies declared for a database.
type Registry struct {
	db  *table.DB
	mds []bound
}

// NewRegistry returns an empty registry bound to a database.
func NewRegistry(db *table.DB) *Registry { return &Registry{db: db} }

// Add validates an MD and registers it compiled against the registry's
// database.
func (r *Registry) Add(m MD) error {
	if err := m.validate(r.db); err != nil {
		return err
	}
	r.mds = append(r.mds, m.bind(r.db))
	return nil
}

// All lists the registered MDs.
func (r *Registry) All() []MD {
	out := make([]MD, len(r.mds))
	for i, b := range r.mds {
		out[i] = b.MD
	}
	return out
}

// ForPair returns the MDs connecting two tables, in either role order.
func (r *Registry) ForPair(a, b string) []MD {
	var out []MD
	for _, m := range r.mds {
		if (m.Parent == a && m.Child == b) || (m.Parent == b && m.Child == a) {
			out = append(out, m.MD)
		}
	}
	return out
}

// FillChildTIDs enforces the MDs whose child is childTable on an insert:
// for each such MD it looks up the matching parent tuple through the
// primary-key index and copies the parent's tid value into the child's tid
// column in vals. This is the insert-time overhead measured in paper
// Sec. 6.3. vals is ordered per the child schema and modified in place.
func (r *Registry) FillChildTIDs(childTable string, vals []column.Value) error {
	for i := range r.mds {
		m := &r.mds[i]
		if m.Child != childTable {
			continue
		}
		ref, ok := m.parent.LookupPK(vals[m.fkIdx].I)
		if !ok {
			return fmt.Errorf("md: %s: no matching %s tuple for %s=%v", m.MD, m.Parent, m.ChildFK, vals[m.fkIdx])
		}
		vals[m.ctIdx] = m.parent.Get(ref, m.ptIdx)
	}
	return nil
}

// tidRange reads the tid-column range of a store from its dictionary.
// ok is false for an empty store, which prunes against everything.
func tidRange(st *table.Store, tidIdx int) (lo, hi int64, ok bool) {
	l, h, ok := st.Col(tidIdx).MinMax()
	if !ok {
		return 0, 0, false
	}
	return l.I, h.I, true
}

// PairPruned evaluates the Eq. 5 prefilter for one MD and one pair of
// physical stores: the subjoin is provably empty when either store is
// empty or the tid ranges do not overlap. The registry's own checks use
// the MD compiled at Add; this form resolves it against db per call.
func (m MD) PairPruned(db *table.DB, parentRef, childRef query.StoreRef) bool {
	b := m.bind(db)
	return b.pairPruned(parentRef, childRef)
}

func (m *bound) pairPruned(parentRef, childRef query.StoreRef) bool {
	pl, ph, pok := tidRange(parentRef.ResolveIn(m.parent), m.ptIdx)
	cl, ch, cok := tidRange(childRef.ResolveIn(m.child), m.ctIdx)
	if !pok || !cok {
		return true
	}
	return ph < cl || ch < pl
}

// ComboPruned reports whether a subjoin combination is dynamically pruned:
// some MD connecting two of the query's tables has disjoint tid ranges
// between the stores the combo assigns to them. Pruning is always correct
// when the registered MDs hold (paper Sec. 5.1).
func (r *Registry) ComboPruned(q *query.Query, combo query.Combo) bool {
	for i := range r.mds {
		m := &r.mds[i]
		pi, ci := slices.Index(q.Tables, m.Parent), slices.Index(q.Tables, m.Child)
		if pi >= 0 && ci >= 0 && m.pairPruned(combo[pi], combo[ci]) {
			return true
		}
	}
	return false
}

// PushdownFilters derives tid-range local filters for a combo from the MDs
// (paper Sec. 5.3): for a mixed main/delta pair (P, C) that could not be
// pruned, rows of P joining rows of C must carry a tid inside C's tid
// range, and vice versa. The returned predicates are conjoined with the
// query's own filters before the subjoin executes. The bool reports whether
// any filter was derived.
func (r *Registry) PushdownFilters(q *query.Query, combo query.Combo) (map[string]expr.Pred, bool) {
	var out map[string]expr.Pred
	add := func(tname string, p expr.Pred) {
		if out == nil {
			out = make(map[string]expr.Pred)
		}
		out[tname] = expr.NewAnd(out[tname], p)
	}
	for i := range r.mds {
		m := &r.mds[i]
		pi, ci := slices.Index(q.Tables, m.Parent), slices.Index(q.Tables, m.Child)
		if pi < 0 || ci < 0 {
			continue
		}
		pRef, cRef := combo[pi], combo[ci]
		// Pushdown pays off for mixed-side pairs: the large main store is
		// prefiltered down to the tid window of the small delta store.
		if pRef.Main == cRef.Main {
			continue
		}
		if pl, ph, ok := tidRange(pRef.ResolveIn(m.parent), m.ptIdx); ok {
			add(m.Child, rangePred(m.ChildTID, pl, ph))
		}
		if cl, ch, ok := tidRange(cRef.ResolveIn(m.child), m.ctIdx); ok {
			add(m.Parent, rangePred(m.ParentTID, cl, ch))
		}
	}
	return out, out != nil
}

func rangePred(col string, lo, hi int64) expr.Pred {
	return expr.NewAnd(
		expr.Cmp{Col: col, Op: expr.Ge, Val: column.IntV(lo)},
		expr.Cmp{Col: col, Op: expr.Le, Val: column.IntV(hi)},
	)
}
