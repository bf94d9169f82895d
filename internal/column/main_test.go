package column

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// refMain is the reference main-column encoding: stable-sort a copy of the
// rows, keep the first value of every run that compares equal (so, of
// values equal under Compare but different in bits, the first in row
// order), and binary-search every row in the result.
func refMain(vals []Value) (dict []Value, ids []uint32) {
	sorted := slices.Clone(vals)
	slices.SortStableFunc(sorted, Compare)
	for i, v := range sorted {
		if i == 0 || Compare(v, sorted[i-1]) != 0 {
			dict = append(dict, v)
		}
	}
	ids = make([]uint32, len(vals))
	for i, v := range vals {
		id, _ := slices.BinarySearchFunc(dict, v, Compare)
		ids[i] = uint32(id)
	}
	return dict, ids
}

// bits renders a value with its float bit pattern, which %v hides.
func bits(v Value) string { return fmt.Sprintf("%v (%#x)", v, math.Float64bits(v.F)) }

// sameBits reports whether two values are identical, telling +0 from -0
// and one NaN payload from another.
func sameBits(a, b Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// checkMain builds a main column of vals and fails unless its dictionary,
// value IDs, row values and bounds are the reference model's.
func checkMain(t testing.TB, kind Kind, vals []Value) {
	t.Helper()
	b := NewMainBuilder(kind)
	for _, v := range vals {
		b.Append(v)
	}
	m := b.Build()
	dict, ids := refMain(vals)
	if m.Len() != len(vals) || m.DictLen() != len(dict) {
		t.Fatalf("%v %v: Len %d DictLen %d, want %d and %d", kind, vals, m.Len(), m.DictLen(), len(vals), len(dict))
	}
	for id, want := range dict {
		if got := m.DictValue(uint32(id)); !sameBits(got, want) {
			t.Fatalf("%v %v: DictValue(%d) = %s, want %s", kind, vals, id, bits(got), bits(want))
		}
	}
	for row, id := range ids {
		if got := m.ID(row); got != id {
			t.Fatalf("%v %v: ID(%d) = %d, want %d", kind, vals, row, got, id)
		}
		if got := m.Value(row); !sameBits(got, dict[id]) {
			t.Fatalf("%v %v: Value(%d) = %s, want %s", kind, vals, row, bits(got), bits(dict[id]))
		}
	}
	lo, hi, ok := m.MinMax()
	if ok != (len(dict) > 0) || ok && (!sameBits(lo, dict[0]) || !sameBits(hi, dict[len(dict)-1])) {
		t.Fatalf("%v %v: MinMax = %v %v %v", kind, vals, lo, hi, ok)
	}
}

var (
	nan1 = math.NaN()
	nan2 = math.Float64frombits(math.Float64bits(math.NaN()) + 1) // another payload
	neg0 = math.Copysign(0, -1)
)

// genValue maps k to a value of the kind, monotonically for int64, with
// NaNs, signed zeros and infinities among the floats and the empty string
// among the strings (string order is not k's order).
func genValue(kind Kind, k int) Value {
	switch kind {
	case Int64:
		return IntV(int64(k) - 8)
	case Float64:
		specials := []float64{nan1, 0, neg0, math.Inf(1), nan2, math.Inf(-1), -2.5}
		if k < len(specials) {
			return FloatV(specials[k])
		}
		return FloatV(float64(k)/4 - 3)
	}
	if k == 0 {
		return StrV("")
	}
	return StrV(strconv.Itoa(k))
}

// TestMainBuildMatchesReference checks the builder against refMain on the
// shapes its two encodings must both get right — empty and single rows,
// all-equal, sorted unique, unsorted with duplicates, NaNs among other
// values, signed zeros in either order and the empty string — and then on
// random sorted and unsorted inputs of every kind.
func TestMainBuildMatchesReference(t *testing.T) {
	fl := func(fs ...float64) []Value {
		out := make([]Value, len(fs))
		for i, f := range fs {
			out[i] = FloatV(f)
		}
		return out
	}
	st := func(ss ...string) []Value {
		out := make([]Value, len(ss))
		for i, s := range ss {
			out[i] = StrV(s)
		}
		return out
	}
	for _, vals := range [][]Value{
		fl(3, nan1, 1, nan2, 0, 1, nan1, -1),
		fl(nan2, nan1, nan2),        // all NaN, non-decreasing
		fl(nan1, nan2, -1, 0, 0, 2), // NaNs first, non-decreasing
		fl(0, neg0, 1, neg0, -1),    // +0 first, unsorted
		fl(neg0, 1, 0, neg0),        // -0 first, unsorted
		fl(neg0, 0, 0, 1),           // -0 first, non-decreasing
		fl(0, neg0, 1),              // +0 first, non-decreasing
		st("", "b", "", "a", "b"),   // empty string, unsorted
		st("", "", "a"),             // empty string, non-decreasing
		{IntV(math.MaxInt64), IntV(math.MinInt64), IntV(0), IntV(math.MaxInt64)},
	} {
		checkMain(t, vals[0].K, vals)
	}

	for _, kind := range []Kind{Int64, Float64, String} {
		gen := func(n, card int, rng *rand.Rand) []Value {
			out := make([]Value, n)
			for i := range out {
				out[i] = genValue(kind, rng.Intn(card))
			}
			return out
		}
		rng := rand.New(rand.NewSource(int64(kind)))
		checkMain(t, kind, nil)
		checkMain(t, kind, gen(1, 20, rng))
		same := make([]Value, 50)
		for i := range same {
			same[i] = genValue(kind, 9)
		}
		checkMain(t, kind, same)
		unique := make([]Value, 100)
		for i := range unique {
			unique[i] = genValue(kind, i)
		}
		rng.Shuffle(len(unique), func(i, j int) { unique[i], unique[j] = unique[j], unique[i] })
		checkMain(t, kind, unique)
		slices.SortStableFunc(unique, Compare)
		checkMain(t, kind, unique)
		for seed := 0; seed < 200; seed++ {
			vals := gen(rng.Intn(300), 1+rng.Intn(60), rng)
			if seed%2 == 0 {
				slices.SortStableFunc(vals, Compare)
			}
			checkMain(t, kind, vals)
		}
	}
}

// TestMainDictionaryKeepsOnlyDistinct: a main column holds a dictionary of
// its distinct values alone, not a row-long array behind it.
func TestMainDictionaryKeepsOnlyDistinct(t *testing.T) {
	const n = 100_000
	for _, sorted := range []bool{false, true} {
		b := NewMainBuilder(String)
		for i := 0; i < n; i++ {
			k := i % 10
			if sorted {
				k = i / (n / 10)
			}
			b.Append(StrV(fmt.Sprintf("value-%d", k)))
		}
		m := b.Build().(*mainCol[string])
		if len(m.dict) != 10 || cap(m.dict) != 10 {
			t.Fatalf("sorted=%v: dictionary len %d cap %d, want 10 and 10", sorted, len(m.dict), cap(m.dict))
		}
	}
}

// FuzzMainBuild checks the builder against refMain. layout picks the kind
// (bits 0-1), whether the rows are sorted first (bit 2) and the number of
// distinct values drawn from (bits 3-7); each data byte is one row.
func FuzzMainBuild(f *testing.F) {
	f.Add(byte(0x51), []byte("unsorted floats with NaNs and signed zeros"))
	f.Add(byte(0x56), []byte("sorted strings, the empty one among them"))
	f.Add(byte(0x04), []byte{})
	f.Fuzz(func(t *testing.T, layout byte, data []byte) {
		kind := Kind(layout % 3)
		card := 1 + int(layout>>3)
		vals := make([]Value, len(data))
		for i, x := range data {
			vals[i] = genValue(kind, int(x)%card)
		}
		if layout&4 != 0 {
			slices.SortStableFunc(vals, Compare)
		}
		checkMain(t, kind, vals)
	})
}

// mainSink keeps BenchmarkMainBuild's result alive.
var mainSink Reader

// BenchmarkMainBuild times building a 200 000-row main column, appends
// included, for sorted unique, unsorted low-cardinality (64 values),
// unsorted mid-cardinality (5 000 values) and unsorted unique int64 and
// string inputs.
func BenchmarkMainBuild(b *testing.B) {
	const n = 200_000
	for _, kind := range []Kind{Int64, String} {
		val := func(k int) Value {
			if kind == Int64 {
				return IntV(int64(k))
			}
			return StrV(fmt.Sprintf("key-%09d", k))
		}
		rng := rand.New(rand.NewSource(1))
		for _, shape := range []string{"sorted-unique", "unsorted-lowcard", "unsorted-5k", "unsorted-unique"} {
			vals := make([]Value, n)
			perm := rng.Perm(n)
			for i := range vals {
				switch shape {
				case "sorted-unique":
					vals[i] = val(i)
				case "unsorted-lowcard":
					vals[i] = val(rng.Intn(64))
				case "unsorted-5k":
					vals[i] = val(rng.Intn(5000))
				default:
					vals[i] = val(perm[i])
				}
			}
			b.Run(fmt.Sprintf("%s/%v", shape, kind), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					mb := NewMainBuilder(kind)
					mb.Grow(len(vals))
					for _, v := range vals {
						mb.Append(v)
					}
					mainSink = mb.Build()
				}
			})
		}
	}
}
