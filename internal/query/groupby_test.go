package query

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/obs"
)

// kernelCol describes one generated column: its kind, whether it is a main
// store (sorted dictionary, bit-packed or run-length IDs) or a delta
// (unsorted dictionary), and its dictionary size.
type kernelCol struct {
	kind     column.Kind
	main     bool
	distinct int
}

// kernelAgg describes one generated aggregate; col is ignored for COUNT(*).
type kernelAgg struct {
	fn   AggFunc
	star bool
	col  kernelCol
}

// kernelCase is one input of the group-by kernel: every key and aggregate
// column is a store of its own, and each tuple names one row per column.
type kernelCase struct {
	specs   []AggSpec
	keyCols []column.Reader
	keyRows [][]int32
	aggCols []column.Reader
	aggRows [][]int32
	n       int
}

// genValue returns the v-th value of a column's domain. exact keeps floats
// on multiples of 1/8, whose sums are exact in any order.
func genValue(rng *rand.Rand, kind column.Kind, v int, exact bool) column.Value {
	switch kind {
	case column.Int64:
		return column.IntV(int64(v)*7919%100003 - 50000)
	case column.Float64:
		if exact {
			return column.FloatV(float64(v*37%1001-500) / 8)
		}
		return column.FloatV(float64(v) + rng.Float64())
	}
	return column.StrV(fmt.Sprintf("s%x", v*2654435761%1000003))
}

// genColumn builds a column whose dictionary holds exactly d.distinct
// values, appended in random order, plus as many again of repeats.
func genColumn(rng *rand.Rand, d kernelCol, exact bool) column.Reader {
	domain := make([]column.Value, d.distinct)
	for v := range domain {
		domain[v] = genValue(rng, d.kind, v, exact)
	}
	order := rng.Perm(d.distinct)
	for i := 0; i < d.distinct; i++ {
		order = append(order, rng.Intn(d.distinct))
	}
	if d.main {
		b := column.NewMainBuilder(d.kind)
		for _, v := range order {
			b.Append(domain[v])
		}
		return b.Build()
	}
	c := column.NewDelta(d.kind)
	for _, v := range order {
		c.Append(domain[v])
	}
	return c
}

// genRows draws n tuple rows over a column; skew makes a few rows repeat.
func genRows(rng *rand.Rand, col column.Reader, n int) []int32 {
	rows := make([]int32, n)
	hot := rng.Intn(col.Len())
	for t := range rows {
		if rng.Intn(4) == 0 {
			rows[t] = int32(hot)
		} else {
			rows[t] = int32(rng.Intn(col.Len()))
		}
	}
	return rows
}

func newKernelCase(rng *rand.Rand, keys []kernelCol, aggs []kernelAgg, n int, exact bool) *kernelCase {
	kc := &kernelCase{n: n}
	for _, d := range keys {
		c := genColumn(rng, d, exact)
		kc.keyCols = append(kc.keyCols, c)
		kc.keyRows = append(kc.keyRows, genRows(rng, c, n))
	}
	// Half the tuples repeat an earlier tuple's key rows, so groups collect
	// several tuples however many key columns there are.
	for t := 1; t < n; t++ {
		if src := rng.Intn(t); rng.Intn(2) == 0 {
			for c := range kc.keyRows {
				kc.keyRows[c][t] = kc.keyRows[c][src]
			}
		}
	}
	for i, a := range aggs {
		spec := AggSpec{Func: a.fn, As: fmt.Sprintf("a%d", i)}
		if a.star {
			kc.specs = append(kc.specs, spec)
			kc.aggCols = append(kc.aggCols, nil)
			kc.aggRows = append(kc.aggRows, nil)
			continue
		}
		spec.Col = ColRef{Table: "T", Col: fmt.Sprintf("v%d", i)}
		c := genColumn(rng, a.col, exact)
		kc.specs = append(kc.specs, spec)
		kc.aggCols = append(kc.aggCols, c)
		kc.aggRows = append(kc.aggRows, genRows(rng, c, n))
	}
	return kc
}

// wantMode is the grouping mode the case's dictionary sizes call for.
func (kc *kernelCase) wantMode() groupMode {
	domain := uint64(1)
	for _, c := range kc.keyCols {
		hi, lo := bits.Mul64(domain, uint64(c.DictLen()))
		if hi != 0 || lo > denseGroupLimit {
			return groupHash
		}
		domain = lo
	}
	return groupDense
}

// addRows is the per-row reference: every tuple decoded and folded into a
// with AggTable.Add, the path the kernel replaced.
func (kc *kernelCase) addRows(a *AggTable) {
	keys := make([]column.Value, len(kc.keyCols))
	vals := make([]column.Value, len(kc.specs))
	for t := 0; t < kc.n; t++ {
		for c, col := range kc.keyCols {
			keys[c] = col.Value(int(kc.keyRows[c][t]))
		}
		for i, col := range kc.aggCols {
			if col != nil {
				vals[i] = col.Value(int(kc.aggRows[i][t]))
			}
		}
		a.Add(keys, vals)
	}
}

// seedGroups folds the first half of the case's tuples into a once more,
// row by row, so the kernel meets groups that already exist — the recycler
// top-up case.
func (kc *kernelCase) seedGroups(a *AggTable) {
	half := *kc
	half.n = kc.n / 2
	half.addRows(a)
}

// checkKernel runs the kernel and the per-row reference over the case,
// both into tables seeded alike when seeded is set, and requires identical
// rows.
func checkKernel(t *testing.T, name string, kc *kernelCase, seeded bool) groupMode {
	t.Helper()
	got, want := NewAggTable(kc.specs), NewAggTable(kc.specs)
	if seeded {
		kc.seedGroups(got)
		kc.seedGroups(want)
	}
	var k groupKernel
	mode, groups := k.aggregate(kc.specs, kc.keyCols, kc.keyRows, kc.aggCols, kc.aggRows, kc.n, got)
	kc.addRows(want)
	if wm := kc.wantMode(); mode != wm {
		t.Fatalf("%s: mode %v, want %v", name, mode, wm)
	}
	if !seeded && groups != want.Groups() {
		t.Fatalf("%s: kernel formed %d groups, reference %d", name, groups, want.Groups())
	}
	if g, w := got.Rows(), want.Rows(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s (mode %v, %d tuples): kernel rows diverge from per-row Add\n got %+v\nwant %+v", name, mode, kc.n, g, w)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: identical rows but Equal false", name)
	}
	return mode
}

func intMainCol(d int) kernelCol { return kernelCol{kind: column.Int64, main: true, distinct: d} }
func fltMainCol(d int) kernelCol { return kernelCol{kind: column.Float64, main: true, distinct: d} }
func strMainCol(d int) kernelCol { return kernelCol{kind: column.String, main: true, distinct: d} }
func intDelta(d int) kernelCol   { return kernelCol{kind: column.Int64, distinct: d} }
func fltDelta(d int) kernelCol   { return kernelCol{kind: column.Float64, distinct: d} }
func strDelta(d int) kernelCol   { return kernelCol{kind: column.String, distinct: d} }

// sumCountAvg is the self-maintainable aggregate mix of the cached queries.
var sumCountAvg = []kernelAgg{
	{fn: Sum, col: fltDelta(50)},
	{fn: Count, star: true},
	{fn: Avg, col: intMainCol(30)},
	{fn: Count, col: strMainCol(4)},
}

// allFuncs adds MIN/MAX over every kind, on main and delta stores.
var allFuncs = append(append([]kernelAgg(nil), sumCountAvg...),
	kernelAgg{fn: Min, col: intDelta(40)},
	kernelAgg{fn: Max, col: intMainCol(40)},
	kernelAgg{fn: Min, col: fltMainCol(40)},
	kernelAgg{fn: Max, col: fltDelta(40)},
	kernelAgg{fn: Min, col: strDelta(40)},
	kernelAgg{fn: Max, col: strDelta(40)},
	kernelAgg{fn: Min, col: strMainCol(40)},
	kernelAgg{fn: Max, col: strMainCol(40)},
)

// wideKeys are eight columns of 257 values: 257^8 overflows 64 bits.
func wideKeys() []kernelCol {
	keys := make([]kernelCol, 8)
	for i := range keys {
		keys[i] = kernelCol{kind: column.Kind(i % 3), main: i%2 == 0, distinct: 257}
	}
	return keys
}

// The kernel's rows equal per-row AggTable.Add on fixed shapes covering
// every grouping mode and both sides of the dense/hash threshold.
func TestGroupByKernelMatchesPerRowAdd(t *testing.T) {
	cases := []struct {
		name string
		keys []kernelCol
		aggs []kernelAgg
		n    int
		mode groupMode
	}{
		{"no keys", nil, allFuncs, 200, groupDense},
		{"string key main", []kernelCol{strMainCol(6)}, sumCountAvg, 500, groupDense},
		{"string key delta", []kernelCol{strDelta(6)}, allFuncs, 500, groupDense},
		{"int float string", []kernelCol{intMainCol(5), fltDelta(7), strMainCol(3)}, allFuncs, 800, groupDense},
		{"dense at the limit", []kernelCol{intDelta(256), strMainCol(256)}, sumCountAvg, 3000, groupDense},
		{"hash past the limit", []kernelCol{intDelta(256), strMainCol(257)}, sumCountAvg, 3000, groupHash},
		{"hash three keys", []kernelCol{fltMainCol(60), strDelta(60), intMainCol(60)}, allFuncs, 2000, groupHash},
		{"hash past 64 bits", wideKeys(), allFuncs, 600, groupHash},
		{"one distinct key", []kernelCol{strDelta(1)}, allFuncs, 50, groupDense},
		{"empty join", []kernelCol{strMainCol(5)}, allFuncs, 0, groupDense},
		{"empty join hash", []kernelCol{intDelta(300), intDelta(300)}, allFuncs, 0, groupHash},
	}
	for i, c := range cases {
		for _, seeded := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(i)))
			kc := newKernelCase(rng, c.keys, c.aggs, c.n, seeded)
			if mode := checkKernel(t, fmt.Sprintf("%s seeded=%v", c.name, seeded), kc, seeded); mode != c.mode {
				t.Fatalf("%s: mode %v, case expects %v", c.name, mode, c.mode)
			}
		}
	}
}

// Randomized: 0–3 key columns of mixed kinds and stores (an eighth of the
// cases eight wide columns), random aggregate mixes, duplicate-heavy rows,
// fresh or seeded output. Fresh tables get arbitrary floats, so the sums
// must be bit-identical to per-row Add, not just close.
func TestGroupByKernelRandomized(t *testing.T) {
	sizes := []int{1, 2, 7, 60, 300}
	funcs := []AggFunc{Sum, Count, Avg, Min, Max}
	seen := map[groupMode]int{}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randCol := func(d int) kernelCol {
			return kernelCol{kind: column.Kind(rng.Intn(3)), main: rng.Intn(2) == 0, distinct: d}
		}
		var keys []kernelCol
		if rng.Intn(8) == 0 {
			keys = wideKeys()
		} else {
			for c := rng.Intn(4); c > 0; c-- {
				keys = append(keys, randCol(sizes[rng.Intn(len(sizes))]))
			}
		}
		var aggs []kernelAgg
		for a := 1 + rng.Intn(4); a > 0; a-- {
			ka := kernelAgg{fn: funcs[rng.Intn(len(funcs))], col: randCol(sizes[rng.Intn(len(sizes))])}
			if ka.fn == Count && rng.Intn(2) == 0 {
				ka.star = true
			}
			if (ka.fn == Sum || ka.fn == Avg) && ka.col.kind == column.String {
				ka.col.kind = column.Float64
			}
			aggs = append(aggs, ka)
		}
		seeded := rng.Intn(3) == 0
		kc := newKernelCase(rng, keys, aggs, rng.Intn(400), seeded)
		seen[checkKernel(t, fmt.Sprintf("seed %d", seed), kc, seeded)]++
	}
	for _, m := range []groupMode{groupDense, groupHash} {
		if seen[m] == 0 {
			t.Errorf("no randomized case ran in %v mode", m)
		}
	}
}

// FuzzGroupByKernel checks the kernel against per-row Add on fuzzed
// layouts: layout[0] picks 0–9 key columns and 1–4 aggregates, one byte per
// column then picks kind, store and dictionary size (1 to 280 values, so
// nine key columns can overflow 64 bits), one byte per aggregate its
// function and column; tuples supplies one row byte per column per tuple;
// seed draws the column values.
func FuzzGroupByKernel(f *testing.F) {
	f.Add(int64(1), []byte{0x12, 0x08, 0x11, 0x22}, []byte("tuples over one key"))
	f.Fuzz(func(t *testing.T, seed int64, layout, tuples []byte) {
		if len(layout) == 0 {
			return
		}
		nKeys, nAggs := int(layout[0]%10), 1+int(layout[0]>>4)%4
		if len(layout) < 1+nKeys+nAggs {
			return
		}
		col := func(b byte) kernelCol {
			return kernelCol{kind: column.Kind(b % 3), main: b&4 != 0, distinct: 1 + int(b>>3)*9}
		}
		keys := make([]kernelCol, nKeys)
		for c := range keys {
			keys[c] = col(layout[1+c])
		}
		aggs := make([]kernelAgg, nAggs)
		for i := range aggs {
			b := layout[1+nKeys+i]
			aggs[i] = kernelAgg{fn: AggFunc(b % 5), star: b&0x80 != 0, col: col(b >> 1)}
			if aggs[i].fn != Count {
				aggs[i].star = false
			}
			if (aggs[i].fn == Sum || aggs[i].fn == Avg) && aggs[i].col.kind == column.String {
				aggs[i].col.kind = column.Int64
			}
		}
		nCols := nKeys + nAggs
		kc := newKernelCase(rand.New(rand.NewSource(seed)), keys, aggs, 0, false)
		kc.n = len(tuples) / nCols
		for c := range kc.keyRows {
			kc.keyRows[c] = fuzzRows(tuples, c, nCols, kc.n, kc.keyCols[c])
		}
		for i := range kc.aggRows {
			if kc.aggCols[i] != nil {
				kc.aggRows[i] = fuzzRows(tuples, nKeys+i, nCols, kc.n, kc.aggCols[i])
			}
		}
		checkKernel(t, "fuzz", kc, false)
	})
}

// fuzzRows reads column c's row of each tuple from the fuzzed bytes.
func fuzzRows(tuples []byte, c, nCols, n int, col column.Reader) []int32 {
	rows := make([]int32, n)
	for t := range rows {
		rows[t] = int32(int(tuples[t*nCols+c]) % col.Len())
	}
	return rows
}

// Regression: Equal compared only sums, so a wrong MIN/MAX extreme passed
// every oracle built on it.
func TestAggTableEqualComparesExtremes(t *testing.T) {
	sp := []AggSpec{{Func: Sum, Col: ColRef{Table: "I", Col: "P"}}, {Func: Min, Col: ColRef{Table: "I", Col: "S"}}}
	k := []column.Value{column.IntV(1)}
	a, b := NewAggTable(sp), NewAggTable(sp)
	a.Add(k, []column.Value{column.FloatV(3), column.StrV("apple")})
	b.Add(k, []column.Value{column.FloatV(3), column.StrV("banana")})
	if a.Equal(b) {
		t.Fatal("tables with different MIN extremes compare Equal")
	}
	b = NewAggTable(sp)
	b.Add(k, []column.Value{column.FloatV(3), column.StrV("apple")})
	if !a.Equal(b) {
		t.Fatal("identical tables compare unequal")
	}
}

// A traced subjoin that aggregates records the grouping mode and its group
// count on its span.
func TestSubjoinSpanRecordsGrouping(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	sp := obs.StartSpan("execute-all")
	if _, _, err := (&Executor{DB: db, Workers: 1}).ExecuteAll(listing1(), db.Txns().ReadSnapshot(), sp); err != nil {
		t.Fatal(err)
	}
	aggregated := 0
	for _, c := range sp.Children {
		if _, joined := c.GetAttr("tuples"); !joined {
			continue
		}
		aggregated++
		if mode, _ := c.GetAttr("agg"); mode != "dense" {
			t.Errorf("%s: agg = %q, want dense (one string key)", c.Name, mode)
		}
		if g, _ := c.GetAttr("groups"); g != "1" && g != "2" {
			t.Errorf("%s: groups = %q, want 1 or 2", c.Name, g)
		}
	}
	if aggregated == 0 {
		t.Fatal("no subjoin joined any tuples")
	}
}

// Hash mode keys on a 64-bit hash of the ID tuple; two tuples whose hashes
// collide must still land in different groups unless their IDs agree.
func TestHashProbeVerifiesIDs(t *testing.T) {
	var k groupKernel
	const n = 3
	k.keyIDs = []uint32{1, 2, 1, 7, 7, 7} // two columns: tuples (1,7), (2,7), (1,7)
	k.comp = []uint64{42, 42, 42}         // every hash collides
	k.gids = make([]int32, n)
	k.probe(n)
	if want := []int32{0, 1, 0}; !reflect.DeepEqual(k.gids, want) || len(k.rep) != 2 {
		t.Fatalf("verified probe: gids %v, %d groups; want %v, 2 groups", k.gids, len(k.rep), want)
	}
}
