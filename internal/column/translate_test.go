package column

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// lookupCases are dictionaries to look values up in, per kind: empty,
// single-entry, dense (every value from the smallest to the largest), and
// ones whose int64 values reach both ends of the range.
var lookupCases = []struct {
	name   string
	kind   Kind
	vals   []Value // the column's rows, duplicates included
	absent []Value // values the dictionary must not find
}{
	{"int/empty", Int64, nil, []Value{IntV(0), IntV(math.MinInt64), IntV(math.MaxInt64)}},
	{"int/single", Int64, []Value{IntV(-7), IntV(-7)}, []Value{IntV(-8), IntV(-6), IntV(math.MinInt64), IntV(math.MaxInt64)}},
	{"int/extremes", Int64,
		[]Value{IntV(math.MaxInt64), IntV(-3), IntV(math.MinInt64), IntV(0), IntV(-3), IntV(math.MaxInt64 - 1), IntV(1 << 40)},
		[]Value{IntV(-2), IntV(1), IntV(math.MinInt64 + 1), IntV(1<<40 + 1), IntV(-1 << 40)}},
	{"int/above-base", Int64, []Value{IntV(10), IntV(20), IntV(30)}, []Value{IntV(9), IntV(math.MinInt64), IntV(15), IntV(31)}},
	{"int/dense", Int64, []Value{IntV(7), IntV(5), IntV(6), IntV(4), IntV(6)}, []Value{IntV(3), IntV(8), IntV(math.MinInt64), IntV(math.MaxInt64)}},
	{"float/empty", Float64, nil, []Value{FloatV(0)}},
	{"float", Float64, []Value{FloatV(2.5), FloatV(-1), FloatV(2.5), FloatV(1e300)}, []Value{FloatV(2.4), FloatV(math.Inf(1)), FloatV(math.NaN())}},
	{"string/empty", String, nil, []Value{StrV("")}},
	{"string", String, []Value{StrV("b"), StrV(""), StrV("ab"), StrV("b")}, []Value{StrV("a"), StrV("c"), StrV("bb")}},
}

// Every dictionary entry is found under its own ID and absent values are
// not, on intMain, mainCol and deltaCol alike.
func TestDictionaryLookup(t *testing.T) {
	for _, c := range lookupCases {
		mb := NewMainBuilder(c.kind)
		delta := NewDelta(c.kind)
		for _, v := range c.vals {
			mb.Append(v)
			delta.Append(v)
		}
		for _, col := range []Reader{mb.Build(), delta} {
			l := col.(Lookuper)
			for id := 0; id < col.DictLen(); id++ {
				v := col.DictValue(uint32(id))
				if got, ok := l.Lookup(v); !ok || got != uint32(id) {
					t.Errorf("%s %T: Lookup(%v) = %d, %v; want %d", c.name, col, v, got, ok, id)
				}
			}
			for _, v := range c.absent {
				if got, ok := l.Lookup(v); ok {
					t.Errorf("%s %T: Lookup(%v) found ID %d in a dictionary without it", c.name, col, v, got)
				}
			}
		}
	}
}

// A sparse int64 main of more than fenceStep entries carries fences, a
// dense one none, and on each — dense, sparse and evenly spread, sparse and
// skewed — Lookup finds every entry under its ID and answers an absent
// value inside the dictionary's range with its insertion position.
func TestSparseLookupFences(t *testing.T) {
	for _, c := range []struct {
		name string
		at   func(i int64) int64
	}{
		{"dense", func(i int64) int64 { return i - 500 }},
		{"even", func(i int64) int64 { return 3*i - 500 }},
		{"skewed", func(i int64) int64 { return i*i - 500 }},
	} {
		const n = 1000
		dict := make([]int64, n)
		mb := NewMainBuilder(Int64)
		for i := range dict {
			dict[i] = c.at(int64(i))
		}
		for i := n - 1; i >= 0; i-- {
			mb.Append(IntV(dict[i]))
		}
		col := mb.Build().(*intMain)
		if fenced := col.fences != nil; fenced != (c.name != "dense") {
			t.Fatalf("%s: fences %v", c.name, fenced)
		}
		probe := func(v int64) {
			want, found := slices.BinarySearch(dict, v)
			got, ok := col.Lookup(IntV(v))
			if ok != found || int(got) != want && v >= dict[0] && v <= dict[n-1] {
				t.Fatalf("%s: Lookup(%d) = %d, %v; want %d, %v", c.name, v, got, ok, want, found)
			}
		}
		for _, v := range dict {
			probe(v - 1)
			probe(v)
			probe(v + 1)
		}
	}
}

// A cached translation is complete for both dictionaries as they stand,
// also after the probe's and the build's delta dictionaries have grown, and
// the cache keeps at most xlCacheSize partners, keyed by their numbers.
func TestTranslationExtendsAndIsBounded(t *testing.T) {
	check := func(probe, build Reader) {
		t.Helper()
		xl := Translation(probe, build)
		if len(xl) != probe.DictLen() {
			t.Fatalf("translation covers %d of %d probe entries", len(xl), probe.DictLen())
		}
		for p, b1 := range xl {
			var want int32
			if b, ok := build.(Lookuper).Lookup(probe.DictValue(uint32(p))); ok {
				want = int32(b) + 1
			}
			if b1 != want {
				t.Fatalf("xl[%d] (%v) = %d, want %d", p, probe.DictValue(uint32(p)), b1, want)
			}
		}
	}
	probe, build := NewDelta(Int64), NewDelta(Int64)
	for _, v := range []int64{5, 1, 9} {
		probe.Append(IntV(v))
	}
	build.Append(IntV(9))
	check(probe, build)
	build.Append(IntV(1)) // a build value matching an old probe entry
	build.Append(IntV(4))
	probe.Append(IntV(4)) // a probe value matching a new build entry
	probe.Append(IntV(7))
	check(probe, build)

	mb := NewMainBuilder(Int64)
	for _, v := range []int64{7, 9, 2} {
		mb.Append(IntV(v))
	}
	main := mb.Build()
	check(main, build)
	check(build, main)

	c := probe.(*deltaCol[int64]).cache()
	for i := 0; i < 2*xlCacheSize; i++ {
		other := NewDelta(Int64)
		other.Append(IntV(int64(i)))
		check(probe, other)
	}
	n := 0
	for _, e := range c.ents {
		if e.seq != 0 {
			n++
		}
	}
	if n != xlCacheSize {
		t.Fatalf("cache holds %d translations, want %d", n, xlCacheSize)
	}
}

// Concurrent joins share one cache: every goroutine gets the same complete
// translation, computed once (run under -race).
func TestTranslationConcurrent(t *testing.T) {
	mb := NewMainBuilder(String)
	for _, v := range []string{"d", "a", "c", "a"} {
		mb.Append(StrV(v))
	}
	probe := mb.Build()
	builds := []Reader{NewDelta(String), NewDelta(String)}
	for i, b := range builds {
		for _, v := range []string{"c", "x", "a"}[i:] {
			b.(Appender).Append(StrV(v))
		}
	}
	var wg sync.WaitGroup
	got := make([][][]int32, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range builds {
				got[g] = append(got[g], Translation(probe, b))
			}
		}()
	}
	wg.Wait()
	// Probe dictionary a, c, d; build IDs c=0 x=1 a=2, then x=0 a=1.
	want := [][]int32{{3, 1, 0}, {2, 0, 0}}
	for g := range got {
		for i := range builds {
			if !slices.Equal(got[g][i], want[i]) || &got[g][i][0] != &got[0][i][0] {
				t.Fatalf("goroutine %d build %d: %v (shared: %v), want %v", g, i, got[g][i], &got[g][i][0] == &got[0][i][0], want[i])
			}
		}
	}
}
