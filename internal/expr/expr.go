// Package expr provides the scalar predicate language of the query engine:
// comparisons of a column against a constant, boolean combinators, and a
// binding step that compiles a predicate against a physical store for
// word-at-a-time evaluation. Local filter predicates — including the
// tid-range filters derived by join-predicate pushdown (paper Sec. 5.3) —
// are expressed in this language.
package expr

import (
	"fmt"
	"math/bits"
	"strings"

	"aggcache/internal/column"
)

func popcount(x uint64) int      { return bits.OnesCount64(x) }
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// Op is a comparison operator.
type Op uint8

// Comparison operators.
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

func (o Op) holds(cmp int) bool {
	switch o {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Ge:
		return cmp >= 0
	}
	return false
}

// RowSource exposes the columns of a physical store; table.Store satisfies
// it.
type RowSource interface {
	Col(i int) column.Reader
}

// Bound is a predicate compiled against one store. Scans evaluate it a word
// at a time through EvalWord; per-row Eval is the reference semantics and
// serves one-row evaluation.
type Bound interface {
	Eval(row int) bool
	WordEvaler
}

// WordEvaler is word-at-a-time evaluation: EvalWord evaluates the predicate
// for the 64 rows [base, base+64), restricted to the rows whose bit is set in
// mask, and returns the bits that satisfy it. Bits clear in mask must come
// back clear; bits for rows past the end of the store are clear in mask by
// construction (the caller passes the visibility word).
type WordEvaler interface {
	EvalWord(base int, mask uint64) uint64
}

// evalBits is the per-bit EvalWord: it tests each row whose bit is set in
// mask with b's Eval, so a selective mask costs only its set rows.
func evalBits(b Bound, base int, mask uint64) uint64 {
	var out uint64
	for m := mask; m != 0; m &= m - 1 {
		bit := m & -m
		if b.Eval(base + trailingZeros(bit)) {
			out |= bit
		}
	}
	return out
}

// Pred is an unbound predicate over named columns of a single table.
type Pred interface {
	fmt.Stringer
	// Columns lists the referenced column names.
	Columns() []string
	// Bind compiles the predicate against a store. colIndex resolves
	// column names; it returns a negative index for unknown names, which
	// Bind reports as an error.
	Bind(colIndex func(string) int, src RowSource) (Bound, error)
}

// True is the always-true predicate.
type True struct{}

// String implements fmt.Stringer.
func (True) String() string { return "true" }

// Columns implements Pred.
func (True) Columns() []string { return nil }

// Bind implements Pred.
func (True) Bind(func(string) int, RowSource) (Bound, error) { return boundTrue{}, nil }

type boundTrue struct{}

func (boundTrue) Eval(int) bool { return true }

func (boundTrue) EvalWord(_ int, mask uint64) uint64 { return mask }

// Cmp compares a column against a constant value.
type Cmp struct {
	Col string
	Op  Op
	Val column.Value
}

// String implements fmt.Stringer.
func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.Col, c.Op, c.Val) }

// Columns implements Pred.
func (c Cmp) Columns() []string { return []string{c.Col} }

// Bind implements Pred.
func (c Cmp) Bind(colIndex func(string) int, src RowSource) (Bound, error) {
	i := colIndex(c.Col)
	if i < 0 {
		return nil, fmt.Errorf("expr: unknown column %s", c.Col)
	}
	col := src.Col(i)
	if col.Kind() != c.Val.K {
		return nil, fmt.Errorf("expr: comparing %v column %s with %v constant", col.Kind(), c.Col, c.Val.K)
	}
	if col.Kind() == column.Int64 {
		b := &boundIntCmp{col: col, op: c.Op, val: c.Val.I}
		b.blk, _ = col.(column.Int64Blocker)
		return b, nil
	}
	return &boundCmp{col: col, op: c.Op, val: c.Val}, nil
}

type boundCmp struct {
	col column.Reader
	op  Op
	val column.Value
}

func (b *boundCmp) Eval(row int) bool { return b.op.holds(column.Compare(b.col.Value(row), b.val)) }

func (b *boundCmp) EvalWord(base int, mask uint64) uint64 { return evalBits(b, base, mask) }

// boundIntCmp is the allocation-free fast path for int64 comparisons —
// the dominant case (keys, tids, years).
type boundIntCmp struct {
	col column.Reader
	blk column.Int64Blocker // non-nil when col supports block decode
	op  Op
	val int64
	buf [64]int64 // block-decode scratch for EvalWord
}

func (b *boundIntCmp) Eval(row int) bool {
	v := b.col.Int64(row)
	switch {
	case v < b.val:
		return b.op.holds(-1)
	case v > b.val:
		return b.op.holds(1)
	}
	return b.op.holds(0)
}

// EvalWord implements WordEvaler. A mostly-full mask with a block-decoding
// column takes the dense path: decode 64 contiguous values in one virtual
// call and compare in a tight loop. Sparse masks are tested per bit so
// selective upstream filters are not paid for twice.
func (b *boundIntCmp) EvalWord(base int, mask uint64) uint64 {
	if mask == 0 {
		return 0
	}
	n := b.col.Len() - base
	if n > 64 {
		n = 64
	}
	if b.blk != nil && popcount(mask) >= n/2 {
		b.blk.Int64Block(base, b.buf[:n])
		var out uint64
		for i := 0; i < n; i++ {
			v := b.buf[i]
			var c int
			switch {
			case v < b.val:
				c = -1
			case v > b.val:
				c = 1
			}
			if b.op.holds(c) {
				out |= 1 << uint(i)
			}
		}
		return out & mask
	}
	return evalBits(b, base, mask)
}

// And is the conjunction of predicates; an empty And is true.
type And struct {
	Preds []Pred
}

// NewAnd builds a conjunction, flattening the trivial cases.
func NewAnd(ps ...Pred) Pred {
	out := make([]Pred, 0, len(ps))
	for _, p := range ps {
		if _, ok := p.(True); ok || p == nil {
			continue
		}
		out = append(out, p)
	}
	switch len(out) {
	case 0:
		return True{}
	case 1:
		return out[0]
	}
	return And{Preds: out}
}

// String implements fmt.Stringer.
func (a And) String() string { return joinPreds(a.Preds, " and ") }

// Columns implements Pred.
func (a And) Columns() []string { return childColumns(a.Preds) }

// Bind implements Pred.
func (a And) Bind(colIndex func(string) int, src RowSource) (Bound, error) {
	bs, err := bindAll(a.Preds, colIndex, src)
	if err != nil {
		return nil, err
	}
	return boundAnd(bs), nil
}

type boundAnd []Bound

func (b boundAnd) Eval(row int) bool {
	for _, p := range b {
		if !p.Eval(row) {
			return false
		}
	}
	return true
}

// EvalWord threads the shrinking mask through the chain, so later terms only
// evaluate surviving rows.
func (b boundAnd) EvalWord(base int, mask uint64) uint64 {
	for _, p := range b {
		if mask == 0 {
			return 0
		}
		mask = p.EvalWord(base, mask)
	}
	return mask
}

// Or is the disjunction of predicates; an empty Or is false.
type Or struct {
	Preds []Pred
}

// String implements fmt.Stringer.
func (o Or) String() string { return joinPreds(o.Preds, " or ") }

// Columns implements Pred.
func (o Or) Columns() []string { return childColumns(o.Preds) }

// Bind implements Pred.
func (o Or) Bind(colIndex func(string) int, src RowSource) (Bound, error) {
	bs, err := bindAll(o.Preds, colIndex, src)
	if err != nil {
		return nil, err
	}
	return boundOr(bs), nil
}

type boundOr []Bound

func (b boundOr) Eval(row int) bool {
	for _, p := range b {
		if p.Eval(row) {
			return true
		}
	}
	return false
}

// EvalWord evaluates each child only on the rows no earlier child satisfied.
func (b boundOr) EvalWord(base int, mask uint64) uint64 {
	var out uint64
	for _, p := range b {
		rest := mask &^ out
		if rest == 0 {
			break
		}
		out |= p.EvalWord(base, rest)
	}
	return out
}

// Not negates a predicate.
type Not struct {
	P Pred
}

// String implements fmt.Stringer.
func (n Not) String() string { return "not (" + n.P.String() + ")" }

// Columns implements Pred.
func (n Not) Columns() []string { return n.P.Columns() }

// Bind implements Pred.
func (n Not) Bind(colIndex func(string) int, src RowSource) (Bound, error) {
	b, err := n.P.Bind(colIndex, src)
	if err != nil {
		return nil, err
	}
	return boundNot{b}, nil
}

type boundNot struct{ p Bound }

func (b boundNot) Eval(row int) bool { return !b.p.Eval(row) }

func (b boundNot) EvalWord(base int, mask uint64) uint64 { return mask &^ b.p.EvalWord(base, mask) }

// ColStats reports the value range of a named column, typically read from
// a store's dictionary. ok is false when the range is unknown (the column
// is absent or empty).
type ColStats func(col string) (lo, hi column.Value, ok bool)

// ProvablyEmpty reports whether the predicate is false for every possible
// row given the column ranges — the dynamic partition pruning of paper
// Def. 1 / Example 1, evaluated from dictionary min/max without scanning.
// A false result means "cannot prove", never "non-empty".
func ProvablyEmpty(p Pred, stats ColStats) bool {
	switch t := p.(type) {
	case Cmp:
		lo, hi, ok := stats(t.Col)
		if !ok || lo.K != t.Val.K {
			return false
		}
		switch t.Op {
		case Eq:
			return column.Less(t.Val, lo) || column.Less(hi, t.Val)
		case Lt:
			return !column.Less(lo, t.Val)
		case Le:
			return column.Less(t.Val, lo)
		case Gt:
			return !column.Less(t.Val, hi)
		case Ge:
			return column.Less(hi, t.Val)
		}
		return false
	case And:
		for _, c := range t.Preds {
			if ProvablyEmpty(c, stats) {
				return true
			}
		}
		return false
	case Or:
		if len(t.Preds) == 0 {
			return true
		}
		for _, c := range t.Preds {
			if !ProvablyEmpty(c, stats) {
				return false
			}
		}
		return true
	}
	return false
}

func bindAll(ps []Pred, colIndex func(string) int, src RowSource) ([]Bound, error) {
	bs := make([]Bound, len(ps))
	for i, p := range ps {
		b, err := p.Bind(colIndex, src)
		if err != nil {
			return nil, err
		}
		bs[i] = b
	}
	return bs, nil
}

func childColumns(ps []Pred) []string {
	var cols []string
	seen := map[string]bool{}
	for _, p := range ps {
		for _, c := range p.Columns() {
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
	}
	return cols
}

func joinPreds(ps []Pred, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Shape renders the predicate's structural shape: the same tree as String
// with every literal elided to "?", so predicates differing only in their
// constants render identically. This is the predicate component of the
// normalized query-shape fingerprint the per-shape profiler keys on.
func Shape(p Pred) string {
	switch v := p.(type) {
	case True:
		return "true"
	case Cmp:
		return v.Col + " " + v.Op.String() + " ?"
	case And:
		return joinShapes(v.Preds, " and ")
	case Or:
		return joinShapes(v.Preds, " or ")
	case Not:
		return "not (" + Shape(v.P) + ")"
	default:
		// Unknown predicate kinds fall back to their full rendering —
		// wrong for shape dedup but never lossy.
		return p.String()
	}
}

func joinShapes(ps []Pred, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = "(" + Shape(p) + ")"
	}
	return strings.Join(parts, sep)
}
