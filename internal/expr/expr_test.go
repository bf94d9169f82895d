package expr

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"aggcache/internal/column"
)

// fakeSource is a RowSource over delta columns for testing.
type fakeSource struct {
	names []string
	cols  []column.Appender
}

func newFakeSource(names []string, kinds []column.Kind) *fakeSource {
	s := &fakeSource{names: names}
	for _, k := range kinds {
		s.cols = append(s.cols, column.NewDelta(k))
	}
	return s
}

func (s *fakeSource) Col(i int) column.Reader { return s.cols[i] }

func (s *fakeSource) colIndex(name string) int {
	for i, n := range s.names {
		if n == name {
			return i
		}
	}
	return -1
}

func (s *fakeSource) add(vals ...column.Value) {
	for i, v := range vals {
		s.cols[i].Append(v)
	}
}

func testSource() *fakeSource {
	s := newFakeSource([]string{"year", "price", "lang"}, []column.Kind{column.Int64, column.Float64, column.String})
	s.add(column.IntV(2012), column.FloatV(9.5), column.StrV("ENG"))
	s.add(column.IntV(2013), column.FloatV(1.0), column.StrV("GER"))
	s.add(column.IntV(2014), column.FloatV(5.5), column.StrV("ENG"))
	return s
}

func evalAll(t *testing.T, s *fakeSource, p Pred) []bool {
	t.Helper()
	b, err := p.Bind(s.colIndex, s)
	if err != nil {
		t.Fatalf("Bind(%s): %v", p, err)
	}
	out := make([]bool, 3)
	for i := range out {
		out[i] = b.Eval(i)
	}
	return out
}

func wantRows(t *testing.T, got []bool, want ...bool) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCmpInt(t *testing.T) {
	s := testSource()
	wantRows(t, evalAll(t, s, Cmp{Col: "year", Op: Eq, Val: column.IntV(2013)}), false, true, false)
	wantRows(t, evalAll(t, s, Cmp{Col: "year", Op: Ge, Val: column.IntV(2013)}), false, true, true)
	wantRows(t, evalAll(t, s, Cmp{Col: "year", Op: Lt, Val: column.IntV(2013)}), true, false, false)
	wantRows(t, evalAll(t, s, Cmp{Col: "year", Op: Ne, Val: column.IntV(2013)}), true, false, true)
	wantRows(t, evalAll(t, s, Cmp{Col: "year", Op: Le, Val: column.IntV(2012)}), true, false, false)
	wantRows(t, evalAll(t, s, Cmp{Col: "year", Op: Gt, Val: column.IntV(2013)}), false, false, true)
}

func TestCmpFloatAndString(t *testing.T) {
	s := testSource()
	wantRows(t, evalAll(t, s, Cmp{Col: "price", Op: Gt, Val: column.FloatV(5.0)}), true, false, true)
	wantRows(t, evalAll(t, s, Cmp{Col: "lang", Op: Eq, Val: column.StrV("ENG")}), true, false, true)
}

func TestBoolCombinators(t *testing.T) {
	s := testSource()
	eng := Cmp{Col: "lang", Op: Eq, Val: column.StrV("ENG")}
	y13 := Cmp{Col: "year", Op: Ge, Val: column.IntV(2013)}
	wantRows(t, evalAll(t, s, NewAnd(eng, y13)), false, false, true)
	wantRows(t, evalAll(t, s, Or{Preds: []Pred{eng, y13}}), true, true, true)
	wantRows(t, evalAll(t, s, Not{P: eng}), false, true, false)
	wantRows(t, evalAll(t, s, True{}), true, true, true)
	wantRows(t, evalAll(t, s, Or{}), false, false, false)
	wantRows(t, evalAll(t, s, And{}), true, true, true)
}

func TestNewAndSimplification(t *testing.T) {
	eng := Cmp{Col: "lang", Op: Eq, Val: column.StrV("ENG")}
	if _, ok := NewAnd().(True); !ok {
		t.Fatal("empty NewAnd must be True")
	}
	if p := NewAnd(True{}, eng); p.String() != eng.String() {
		t.Fatalf("single-branch NewAnd = %s", p)
	}
	if p := NewAnd(eng, nil, True{}, eng); p.String() != "(lang = ENG) and (lang = ENG)" {
		t.Fatalf("NewAnd = %s", p)
	}
}

func TestBindErrors(t *testing.T) {
	s := testSource()
	if _, err := (Cmp{Col: "nope", Op: Eq, Val: column.IntV(1)}).Bind(s.colIndex, s); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := (Cmp{Col: "year", Op: Eq, Val: column.StrV("x")}).Bind(s.colIndex, s); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := NewAnd(Cmp{Col: "nope", Op: Eq, Val: column.IntV(1)}, Cmp{Col: "year", Op: Eq, Val: column.IntV(1)}).Bind(s.colIndex, s); err == nil {
		t.Fatal("And with bad child accepted")
	}
	if _, err := (Or{Preds: []Pred{Cmp{Col: "nope", Op: Eq, Val: column.IntV(1)}}}).Bind(s.colIndex, s); err == nil {
		t.Fatal("Or with bad child accepted")
	}
	if _, err := (Not{P: Cmp{Col: "nope", Op: Eq, Val: column.IntV(1)}}).Bind(s.colIndex, s); err == nil {
		t.Fatal("Not with bad child accepted")
	}
}

func TestColumnsDeduplicated(t *testing.T) {
	p := NewAnd(
		Cmp{Col: "a", Op: Eq, Val: column.IntV(1)},
		Or{Preds: []Pred{
			Cmp{Col: "a", Op: Gt, Val: column.IntV(0)},
			Cmp{Col: "b", Op: Lt, Val: column.IntV(9)},
		}},
	)
	cols := p.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("Columns = %v, want [a b]", cols)
	}
}

func TestStrings(t *testing.T) {
	p := NewAnd(
		Cmp{Col: "year", Op: Ge, Val: column.IntV(2013)},
		Not{P: Cmp{Col: "lang", Op: Eq, Val: column.StrV("ENG")}},
	)
	want := "(year >= 2013) and (not (lang = ENG))"
	if p.String() != want {
		t.Fatalf("String = %q, want %q", p.String(), want)
	}
	if Op(99).String() != "?" {
		t.Fatal("unknown op string")
	}
}

// TestShapeElidesLiterals: Shape renders the predicate tree with every
// constant replaced by "?", so predicates differing only in literals
// produce identical shapes — the dedup property the per-shape profiler
// keys on.
func TestShapeElidesLiterals(t *testing.T) {
	p2012 := NewAnd(
		Cmp{Col: "year", Op: Ge, Val: column.IntV(2012)},
		Not{P: Cmp{Col: "lang", Op: Eq, Val: column.StrV("ENG")}},
	)
	p2013 := NewAnd(
		Cmp{Col: "year", Op: Ge, Val: column.IntV(2013)},
		Not{P: Cmp{Col: "lang", Op: Eq, Val: column.StrV("GER")}},
	)
	want := "(year >= ?) and (not (lang = ?))"
	if got := Shape(p2012); got != want {
		t.Fatalf("Shape = %q, want %q", got, want)
	}
	if Shape(p2012) != Shape(p2013) {
		t.Fatalf("shapes differ for literal-only variation:\n%q\n%q", Shape(p2012), Shape(p2013))
	}
	if got := Shape(True{}); got != "true" {
		t.Fatalf("Shape(True) = %q", got)
	}
	or := Or{Preds: []Pred{
		Cmp{Col: "a", Op: Lt, Val: column.IntV(1)},
		Cmp{Col: "b", Op: Ne, Val: column.IntV(2)},
	}}
	if got := Shape(or); got != "(a < ?) or (b <> ?)" {
		t.Fatalf("Shape(or) = %q", got)
	}
}

// Property: the int64 fast path agrees with generic Value comparison for
// every operator.
func TestQuickIntFastPathAgrees(t *testing.T) {
	f := func(vals []int64, c int64, opRaw uint8) bool {
		op := Op(opRaw % 6)
		s := newFakeSource([]string{"x"}, []column.Kind{column.Int64})
		for _, v := range vals {
			s.add(column.IntV(v))
		}
		b, err := (Cmp{Col: "x", Op: op, Val: column.IntV(c)}).Bind(s.colIndex, s)
		if err != nil {
			return false
		}
		for i, v := range vals {
			if b.Eval(i) != op.holds(column.Compare(column.IntV(v), column.IntV(c))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// readerSource is a RowSource over built columns: main or delta.
type readerSource []column.Reader

func (s readerSource) Col(i int) column.Reader { return s[i] }

// TestBoundEvalWordMatchesEval checks word-at-a-time evaluation against the
// per-row Eval reference: Cmp on int, float and string columns and
// And/Or/Not nested two deep, on main and delta stores, under random masks
// that include the store's last, partial word.
func TestBoundEvalWordMatchesEval(t *testing.T) {
	const rows = 200 // three full words and a partial one of 8 rows
	rng := rand.New(rand.NewSource(7))
	names := []string{"i", "f", "s"}
	colIndex := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		return -1
	}
	value := func(c int) column.Value {
		switch c {
		case 0:
			return column.IntV(int64(rng.Intn(12)))
		case 1:
			return column.FloatV(float64(rng.Intn(12)) / 2)
		}
		return column.StrV(string(rune('a' + rng.Intn(12))))
	}
	kinds := []column.Kind{column.Int64, column.Float64, column.String}
	stores := map[string]readerSource{}
	for _, side := range []string{"main", "delta"} {
		var src readerSource
		for c, k := range kinds {
			if side == "main" {
				b := column.NewMainBuilder(k)
				for r := 0; r < rows; r++ {
					b.Append(value(c))
				}
				src = append(src, b.Build())
				continue
			}
			d := column.NewDelta(k)
			for r := 0; r < rows; r++ {
				d.Append(value(c))
			}
			src = append(src, d)
		}
		stores[side] = src
	}
	cmp := func() Pred {
		c := rng.Intn(len(names))
		return Cmp{Col: names[c], Op: Op(rng.Intn(6)), Val: value(c)}
	}
	var pred func(depth int) Pred
	pred = func(depth int) Pred {
		if depth == 0 {
			return cmp()
		}
		switch rng.Intn(4) {
		case 0:
			return cmp()
		case 1:
			return And{Preds: []Pred{pred(depth - 1), pred(depth - 1), pred(depth - 1)}}
		case 2:
			return Or{Preds: []Pred{pred(depth - 1), pred(depth - 1)}}
		}
		return Not{P: pred(depth - 1)}
	}
	for side, src := range stores {
		for trial := 0; trial < 300; trial++ {
			p := pred(2)
			b, err := p.Bind(colIndex, src)
			if err != nil {
				t.Fatalf("Bind(%s): %v", p, err)
			}
			for base := 0; base < rows; base += 64 {
				var mask uint64
				switch rng.Intn(3) {
				case 0:
					mask = ^uint64(0) // dense
				case 1:
					mask = rng.Uint64() & rng.Uint64() & rng.Uint64() // sparse
				default:
					mask = rng.Uint64()
				}
				if n := rows - base; n < 64 {
					mask &= 1<<uint(n) - 1
				}
				var want uint64
				for i := 0; i < 64; i++ {
					if mask&(1<<uint(i)) != 0 && b.Eval(base+i) {
						want |= 1 << uint(i)
					}
				}
				if got := b.EvalWord(base, mask); got != want {
					t.Fatalf("%s store, %s, word %d mask %#x: EvalWord = %#x, Eval = %#x", side, p, base/64, mask, got, want)
				}
			}
		}
	}
}

// evalWords checks b over every row of a rows-long store: EvalWord under a
// full and a sparse mask must equal per-row Eval, and Eval must equal want.
func evalWords(t *testing.T, what string, b Bound, rows int, want func(row int) bool) {
	t.Helper()
	for row := 0; row < rows; row++ {
		if got := b.Eval(row); got != want(row) {
			t.Fatalf("%s: row %d Eval = %v, reference %v", what, row, got, want(row))
		}
	}
	for base := 0; base < rows; base += 64 {
		full := ^uint64(0)
		if n := rows - base; n < 64 {
			full = 1<<uint(n) - 1
		}
		for _, mask := range []uint64{full, full & 0x5a5a_0f0f_3c3c_9999} {
			var ref uint64
			for i := 0; i < 64; i++ {
				if mask&(1<<uint(i)) != 0 && b.Eval(base+i) {
					ref |= 1 << uint(i)
				}
			}
			if got := b.EvalWord(base, mask); got != ref {
				t.Fatalf("%s: word %d mask %#x: EvalWord = %#x, Eval = %#x", what, base/64, mask, got, ref)
			}
		}
	}
}

// TestStringEqualityOnIDs: string = and <> compare dictionary value IDs.
// On main and delta stores, with the constant present and absent, EvalWord
// and Eval agree with a string comparison per row — also after the delta
// dictionary grew between two binds.
func TestStringEqualityOnIDs(t *testing.T) {
	const rows = 150
	rng := rand.New(rand.NewSource(3))
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = string(rune('a' + rng.Intn(9)))
	}
	mb, delta := column.NewMainBuilder(column.String), column.NewDelta(column.String)
	for _, v := range vals {
		mb.Append(column.StrV(v))
		delta.Append(column.StrV(v))
	}
	stores := map[string]column.Reader{"main": mb.Build(), "delta": delta}
	colIndex := func(string) int { return 0 }
	check := func(side string, col column.Reader, vals []string) {
		for _, c := range []string{"a", "e", "i", "zz", ""} {
			for _, op := range []Op{Eq, Ne} {
				p := Cmp{Col: "s", Op: op, Val: column.StrV(c)}
				b, err := p.Bind(colIndex, readerSource{col})
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := b.(*boundIDEq); !ok {
					t.Fatalf("%s: bound %T, want the value-ID path", p, b)
				}
				evalWords(t, side+" "+p.String(), b, len(vals), func(row int) bool {
					return op.holds(strings.Compare(vals[row], c))
				})
			}
		}
	}
	for side, col := range stores {
		check(side, col, vals)
	}
	// "zz" is absent at the first bind; appending it grows the delta's
	// dictionary, and a second bind must find it.
	p := Cmp{Col: "s", Op: Eq, Val: column.StrV("zz")}
	before, _ := p.Bind(colIndex, readerSource{delta})
	delta.Append(column.StrV("zz"))
	vals = append(vals, "zz")
	if before.Eval(rows) {
		t.Fatal("a bind taken while zz was absent matches the row appended later")
	}
	check("grown delta", delta, vals)
}

// TestFloatTotalOrder: on float stores holding NaN, ±Inf, signed zeros and
// repeated values, every operator against every constant evaluates in
// cmp.Compare's total order (NaN first, equal to NaN) — per row, a word at
// a time, and in ProvablyEmpty's verdict from the store's MinMax bounds,
// which must be the total order's minimum and maximum.
func TestFloatTotalOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	domains := [][]float64{
		{1.5, nan, -inf, 1.5, inf, 0, nan, -2, math.Copysign(0, -1), 7},
		{nan, 3, 3, -1},
		{nan, nan},
		{inf, 2, -inf},
		{4, 4, 4},
	}
	consts := []float64{nan, -inf, inf, -2, 0, math.Copysign(0, -1), 1.5, 3, 4, 7, 100, -100}
	for d, dom := range domains {
		rows := 5 * len(dom)
		mb, delta := column.NewMainBuilder(column.Float64), column.NewDelta(column.Float64)
		vals := make([]float64, rows)
		for r := range vals {
			vals[r] = dom[(r*7)%len(dom)]
			mb.Append(column.FloatV(vals[r]))
			delta.Append(column.FloatV(vals[r]))
		}
		lo, hi := slices.MinFunc(vals, cmp.Compare[float64]), slices.MaxFunc(vals, cmp.Compare[float64])
		for side, col := range map[string]column.Reader{"main": mb.Build(), "delta": delta} {
			clo, chi, ok := col.MinMax()
			if !ok || cmp.Compare(clo.F, lo) != 0 || cmp.Compare(chi.F, hi) != 0 {
				t.Fatalf("domain %d %s: MinMax = %v..%v, want %v..%v", d, side, clo, chi, lo, hi)
			}
			stats := func(string) (column.Value, column.Value, bool) { return col.MinMax() }
			for _, c := range consts {
				for op := Eq; op <= Ge; op++ {
					p := Cmp{Col: "f", Op: op, Val: column.FloatV(c)}
					b, err := p.Bind(func(string) int { return 0 }, readerSource{col})
					if err != nil {
						t.Fatal(err)
					}
					matches := 0
					want := func(row int) bool { return op.holds(cmp.Compare(vals[row], c)) }
					for r := range vals {
						if want(r) {
							matches++
						}
					}
					what := fmt.Sprintf("domain %d %s %s", d, side, p)
					evalWords(t, what, b, rows, want)
					if ProvablyEmpty(p, stats) && matches > 0 {
						t.Fatalf("%s: ProvablyEmpty with %d matching rows", what, matches)
					}
				}
			}
		}
	}
}
