package column

import (
	"cmp"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestValueCompare(t *testing.T) {
	if Compare(IntV(1), IntV(2)) != -1 || Compare(IntV(2), IntV(1)) != 1 || Compare(IntV(3), IntV(3)) != 0 {
		t.Fatal("int compare broken")
	}
	if Compare(FloatV(1.5), FloatV(2.5)) != -1 {
		t.Fatal("float compare broken")
	}
	if Compare(StrV("a"), StrV("b")) != -1 {
		t.Fatal("string compare broken")
	}
	if !Less(IntV(1), IntV(2)) || Less(IntV(2), IntV(2)) {
		t.Fatal("Less broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind compare should panic")
		}
	}()
	Compare(IntV(1), StrV("x"))
}

func TestValueString(t *testing.T) {
	if IntV(42).String() != "42" || StrV("hi").String() != "hi" || FloatV(1.5).String() != "1.5" {
		t.Fatal("Value.String broken")
	}
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Fatal("Kind.String broken")
	}
}

func TestValueFloat(t *testing.T) {
	if IntV(3).Float() != 3.0 || FloatV(2.5).Float() != 2.5 {
		t.Fatal("Float broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Float on string should panic")
		}
	}()
	StrV("x").Float()
}

func TestDeltaAppendAndRead(t *testing.T) {
	d := NewDelta(Int64)
	vals := []int64{5, 3, 5, 9, 3, 3}
	for _, v := range vals {
		d.Append(IntV(v))
	}
	if d.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(vals))
	}
	if d.DictLen() != 3 {
		t.Fatalf("DictLen = %d, want 3", d.DictLen())
	}
	for i, v := range vals {
		if got := d.Value(i); got.I != v {
			t.Fatalf("Value(%d) = %v, want %d", i, got, v)
		}
		if got := d.Int64(i); got != v {
			t.Fatalf("Int64(%d) = %d, want %d", i, got, v)
		}
	}
	lo, hi, ok := d.MinMax()
	if !ok || lo.I != 3 || hi.I != 9 {
		t.Fatalf("MinMax = %v %v %v, want 3 9 true", lo, hi, ok)
	}
	// Same value, same dictionary ID.
	if d.ID(0) != d.ID(2) || d.ID(1) != d.ID(4) {
		t.Fatal("equal values must share a dictionary ID")
	}
	if d.DictValue(d.ID(3)).I != 9 {
		t.Fatal("DictValue mismatch")
	}
}

func TestDeltaEmptyMinMax(t *testing.T) {
	d := NewDelta(String)
	if _, _, ok := d.MinMax(); ok {
		t.Fatal("empty column must report no min/max")
	}
}

func TestMainBuilderSortedDict(t *testing.T) {
	b := NewMainBuilder(String)
	vals := []string{"pear", "apple", "pear", "fig", "apple"}
	for _, v := range vals {
		b.Append(StrV(v))
	}
	m := b.Build()
	if m.Len() != 5 || m.DictLen() != 3 {
		t.Fatalf("Len=%d DictLen=%d, want 5,3", m.Len(), m.DictLen())
	}
	for i, v := range vals {
		if got := m.Value(i); got.S != v {
			t.Fatalf("Value(%d) = %v, want %s", i, got, v)
		}
	}
	// Main dictionary is sorted, so value IDs respect order.
	lo, hi, ok := m.MinMax()
	if !ok || lo.S != "apple" || hi.S != "pear" {
		t.Fatalf("MinMax = %v %v, want apple pear", lo, hi)
	}
	if m.DictValue(0).S != "apple" || m.DictValue(2).S != "pear" {
		t.Fatal("main dictionary must be sorted")
	}
}

// A float main with NaN, ±Inf and repeated values keeps one total order: the
// dictionary is strictly ascending under cmp.Compare (NaN first, one NaN
// entry), every row reads back its value, and Lookup finds every entry.
func TestFloatMainDictionaryWithNaN(t *testing.T) {
	nan := math.NaN()
	vals := []float64{3, nan, math.Inf(1), -1, nan, 3, math.Inf(-1), 0, nan, -1, math.Inf(1), 2.5}
	b := NewMainBuilder(Float64)
	for _, v := range vals {
		b.Append(FloatV(v))
	}
	m := b.Build()
	if m.DictLen() != 7 {
		t.Fatalf("DictLen = %d, want 7 (NaN, -Inf, -1, 0, 2.5, 3, +Inf)", m.DictLen())
	}
	for id := 1; id < m.DictLen(); id++ {
		if prev, cur := m.DictValue(uint32(id-1)).F, m.DictValue(uint32(id)).F; cmp.Compare(prev, cur) >= 0 {
			t.Fatalf("dictionary not strictly ascending at %d: %v then %v", id, prev, cur)
		}
	}
	for i, v := range vals {
		if got := m.Value(i).F; cmp.Compare(got, v) != 0 {
			t.Fatalf("Value(%d) = %v, want %v", i, got, v)
		}
	}
	lk := m.(Lookuper)
	for id := 0; id < m.DictLen(); id++ {
		if got, ok := lk.Lookup(m.DictValue(uint32(id))); !ok || got != uint32(id) {
			t.Fatalf("Lookup(%v) = %d, %v, want %d", m.DictValue(uint32(id)), got, ok, id)
		}
	}
}

func TestMainEmpty(t *testing.T) {
	m := NewMainBuilder(Float64).Build()
	if m.Len() != 0 || m.DictLen() != 0 {
		t.Fatal("empty main must be empty")
	}
	if _, _, ok := m.MinMax(); ok {
		t.Fatal("empty main must report no min/max")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	d := NewDelta(Int64)
	mustPanic(t, func() { d.Append(StrV("x")) })
	f := NewDelta(Float64)
	f.Append(FloatV(1))
	mustPanic(t, func() { f.Int64(0) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestMemBytesNonZero(t *testing.T) {
	d := NewDelta(String)
	d.Append(StrV("hello"))
	if d.MemBytes() == 0 {
		t.Fatal("delta MemBytes = 0")
	}
	b := NewMainBuilder(Int64)
	b.Append(IntV(1))
	if b.Build().MemBytes() == 0 {
		t.Fatal("main MemBytes = 0")
	}
}

// Property: a main column built from any int64 sequence reproduces it
// exactly, and MinMax matches the true extremes.
func TestMainQuickRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		b := NewMainBuilder(Int64)
		for _, v := range vals {
			b.Append(IntV(v))
		}
		m := b.Build()
		if m.Len() != len(vals) {
			return false
		}
		if len(vals) == 0 {
			_, _, ok := m.MinMax()
			return !ok
		}
		lo, hi := vals[0], vals[0]
		for i, v := range vals {
			if m.Value(i).I != v {
				return false
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		gl, gh, ok := m.MinMax()
		return ok && gl.I == lo && gh.I == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: delta and main representations of the same data agree row by
// row and on dictionary cardinality.
func TestQuickDeltaMainAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		d := NewDelta(Int64)
		b := NewMainBuilder(Int64)
		for i := 0; i < n; i++ {
			v := IntV(int64(rng.Intn(50)))
			d.Append(v)
			b.Append(v)
		}
		m := b.Build()
		if d.Len() != m.Len() || d.DictLen() != m.DictLen() {
			return false
		}
		for i := 0; i < n; i++ {
			if d.Int64(i) != m.Int64(i) {
				return false
			}
		}
		dl, dh, dok := d.MinMax()
		ml, mh, mok := m.MinMax()
		if dok != mok {
			return false
		}
		return !dok || (dl == ml && dh == mh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStringMainDictAccess(t *testing.T) {
	b := NewMainBuilder(String)
	for _, s := range []string{"b", "a", "b", "c"} {
		b.Append(StrV(s))
	}
	m := b.Build()
	if m.Kind() != String {
		t.Fatal("Kind wrong")
	}
	// Sorted dictionary: IDs are ordered by value.
	if m.ID(1) != 0 || m.ID(0) != 1 || m.ID(3) != 2 {
		t.Fatalf("IDs = %d %d %d", m.ID(1), m.ID(0), m.ID(3))
	}
	if m.DictValue(1).S != "b" {
		t.Fatal("DictValue wrong")
	}
	if m.MemBytes() == 0 {
		t.Fatal("MemBytes = 0")
	}
	mustPanic(t, func() { m.Int64(0) })
}

func TestFloatMainAccess(t *testing.T) {
	b := NewMainBuilder(Float64)
	b.Append(FloatV(2.5))
	b.Append(FloatV(1.5))
	m := b.Build()
	if m.Value(0).F != 2.5 || m.Value(1).F != 1.5 {
		t.Fatal("float main values wrong")
	}
	mustPanic(t, func() { m.Int64(0) })
	d := NewDelta(Float64)
	d.Append(FloatV(1))
	if d.Kind() != Float64 {
		t.Fatal("delta kind wrong")
	}
}

// The bulk gathers agree with row-at-a-time access on every column
// representation: delta, bit-packed main, run-length main, int-main.
func TestGathersMatchRowAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []Kind{Int64, Float64, String} {
		for _, runs := range []bool{false, true} {
			d := NewDelta(kind)
			b := NewMainBuilder(kind)
			const n = 300
			for i := 0; i < n; i++ {
				x := rng.Intn(40)
				if runs {
					x = i / 25 // long runs: the main builder picks RLE
				}
				var v Value
				switch kind {
				case Int64:
					v = IntV(int64(x) - 7)
				case Float64:
					v = FloatV(float64(x) / 4)
				default:
					v = StrV(strconv.Itoa(x))
				}
				d.Append(v)
				b.Append(v)
			}
			rows := make([]int32, 120)
			for i := range rows {
				rows[i] = int32(rng.Intn(n))
			}
			for name, c := range map[string]Reader{"delta": d, "main": b.Build()} {
				ids := make([]uint32, len(rows))
				c.(IDGatherer).IDGather(rows, ids)
				fs := make([]float64, len(rows))
				fg := c.(Float64Gatherer)
				if kind == String {
					mustPanic(t, func() { fg.Float64Gather(rows, fs) })
				} else {
					fg.Float64Gather(rows, fs)
				}
				for i, r := range rows {
					if ids[i] != c.ID(int(r)) {
						t.Fatalf("%v %s runs=%v: IDGather[%d] = %d, ID = %d", kind, name, runs, i, ids[i], c.ID(int(r)))
					}
					if kind != String && fs[i] != c.Value(int(r)).Float() {
						t.Fatalf("%v %s runs=%v: Float64Gather[%d] = %v, Value = %v", kind, name, runs, i, fs[i], c.Value(int(r)))
					}
				}
			}
		}
	}
}
