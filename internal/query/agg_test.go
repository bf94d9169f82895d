package query

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"aggcache/internal/column"
)

func specs() []AggSpec {
	return []AggSpec{
		{Func: Sum, Col: ColRef{Table: "I", Col: "Price"}, As: "Total"},
		{Func: Count, As: "N"},
		{Func: Avg, Col: ColRef{Table: "I", Col: "Price"}, As: "AvgP"},
	}
}

func TestAggTableAddAndRows(t *testing.T) {
	a := NewAggTable(specs())
	k1 := []column.Value{column.StrV("food")}
	k2 := []column.Value{column.StrV("tools")}
	a.Add(k1, []column.Value{column.FloatV(10), {}, column.FloatV(10)})
	a.Add(k1, []column.Value{column.FloatV(30), {}, column.FloatV(30)})
	a.Add(k2, []column.Value{column.FloatV(5), {}, column.FloatV(5)})
	if a.Groups() != 2 {
		t.Fatalf("Groups = %d, want 2", a.Groups())
	}
	rows := a.Rows()
	if len(rows) != 2 {
		t.Fatalf("Rows = %d, want 2", len(rows))
	}
	// Sorted deterministically; find the food group.
	var food *Row
	for i := range rows {
		if rows[i].Keys[0].S == "food" {
			food = &rows[i]
		}
	}
	if food == nil {
		t.Fatal("food group missing")
	}
	if food.Aggs[0].F != 40 || food.Aggs[1].I != 2 || food.Aggs[2].F != 20 || food.Count != 2 {
		t.Fatalf("food aggs = %v count=%d", food.Aggs, food.Count)
	}
}

func TestAggTableApplySignedDeletesEmptyGroup(t *testing.T) {
	a := NewAggTable(specs())
	k := []column.Value{column.IntV(7)}
	v := []column.Value{column.FloatV(10), {}, column.FloatV(10)}
	a.Add(k, v)
	neg := NewAggTable(specs())
	neg.Add(k, v)
	comp := NewAggTable(specs())
	comp.MergeSigned(neg, -1)
	a.ApplySigned(comp)
	if a.Groups() != 0 {
		t.Fatalf("Groups = %d after full subtraction, want 0", a.Groups())
	}
}

func TestAggTableMergeAndSignedSubtract(t *testing.T) {
	a := NewAggTable(specs())
	b := NewAggTable(specs())
	k := []column.Value{column.IntV(1)}
	a.Add(k, []column.Value{column.FloatV(1), {}, column.FloatV(1)})
	b.Add(k, []column.Value{column.FloatV(2), {}, column.FloatV(2)})
	b.Add([]column.Value{column.IntV(2)}, []column.Value{column.FloatV(9), {}, column.FloatV(9)})
	a.Merge(b)
	if a.Groups() != 2 {
		t.Fatalf("Groups = %d, want 2", a.Groups())
	}
	rows := a.Rows()
	if rows[0].Keys[0].I != 1 || rows[0].Aggs[0].F != 3 || rows[0].Count != 2 {
		t.Fatalf("merged group 1 = %+v", rows[0])
	}
	comp := NewAggTable(specs())
	comp.MergeSigned(b, -1)
	a.ApplySigned(comp)
	rows = a.Rows()
	if a.Groups() != 1 || rows[0].Aggs[0].F != 1 || rows[0].Count != 1 {
		t.Fatalf("after subtracting b: %+v", rows)
	}
}

// TestMergeEqualsMergeSignedPlus checks that Merge and MergeSigned(+1) leave
// bit-identical tables: both are the one signed fold with sign +1.
func TestMergeEqualsMergeSignedPlus(t *testing.T) {
	sp := append(specs(),
		AggSpec{Func: Min, Col: ColRef{Table: "I", Col: "Price"}},
		AggSpec{Func: Max, Col: ColRef{Table: "I", Col: "Price"}})
	fill := func(seed float64) *AggTable {
		a := NewAggTable(sp)
		for i := 0; i < 40; i++ {
			v := column.FloatV(seed*float64(i%7) + 0.1*float64(i))
			a.Add([]column.Value{column.IntV(int64(i % 5))}, []column.Value{v, {}, v, v, v})
		}
		return a
	}
	x, y := fill(1.3), fill(1.3)
	b := fill(-2.7)
	x.Merge(b)
	y.MergeSigned(b, +1)
	if !identical(x, y) {
		t.Fatalf("Merge and MergeSigned(+1) differ:\n%+v\n%+v", x.Rows(), y.Rows())
	}
}

// identical reports whether two tables finalize to bit-identical rows:
// equal keys and counts, and aggregates equal to the bit.
func identical(x, y *AggTable) bool {
	xr, yr := x.Rows(), y.Rows()
	if len(xr) != len(yr) {
		return false
	}
	for i := range xr {
		if EncodeGroupKey(xr[i].Keys) != EncodeGroupKey(yr[i].Keys) || xr[i].Count != yr[i].Count {
			return false
		}
		for j, v := range xr[i].Aggs {
			w := yr[i].Aggs[j]
			if v.K != w.K || v.I != w.I || v.S != w.S || math.Float64bits(v.F) != math.Float64bits(w.F) {
				return false
			}
		}
	}
	return true
}

func TestAggTableClone(t *testing.T) {
	a := NewAggTable(specs())
	k := []column.Value{column.IntV(1)}
	a.Add(k, []column.Value{column.FloatV(1), {}, column.FloatV(1)})
	c := a.Clone()
	c.Add(k, []column.Value{column.FloatV(5), {}, column.FloatV(5)})
	if a.Rows()[0].Aggs[0].F != 1 {
		t.Fatal("Clone shares state with original")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not Equal to original")
	}
	if a.Equal(c) {
		t.Fatal("diverged clone still Equal")
	}
}

func TestAggTableMinMax(t *testing.T) {
	sp := []AggSpec{
		{Func: Min, Col: ColRef{Table: "I", Col: "P"}},
		{Func: Max, Col: ColRef{Table: "I", Col: "P"}},
	}
	a := NewAggTable(sp)
	k := []column.Value{column.IntV(1)}
	a.Add(k, []column.Value{column.FloatV(5), column.FloatV(5)})
	a.Add(k, []column.Value{column.FloatV(2), column.FloatV(2)})
	a.Add(k, []column.Value{column.FloatV(9), column.FloatV(9)})
	r := a.Rows()[0]
	if r.Aggs[0].F != 2 || r.Aggs[1].F != 9 {
		t.Fatalf("min/max = %v", r.Aggs)
	}
	b := NewAggTable(sp)
	b.Add(k, []column.Value{column.FloatV(1), column.FloatV(11)})
	a.Merge(b)
	r = a.Rows()[0]
	if r.Aggs[0].F != 1 || r.Aggs[1].F != 11 {
		t.Fatalf("after merge min/max = %v", r.Aggs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative merge on Min must panic")
		}
	}()
	a.MergeSigned(b, -1)
}

func TestEncodeKeyCollisionFree(t *testing.T) {
	pairs := [][2][]column.Value{
		{{column.StrV("ab"), column.StrV("c")}, {column.StrV("a"), column.StrV("bc")}},
		{{column.StrV("1")}, {column.IntV(1)}},
		{{column.StrV("")}, {}},
		{{column.IntV(12), column.IntV(3)}, {column.IntV(1), column.IntV(23)}},
	}
	for i, p := range pairs {
		if encodeKey(p[0]) == encodeKey(p[1]) {
			t.Errorf("pair %d collides: %q", i, encodeKey(p[0]))
		}
	}
	if encodeKey([]column.Value{column.IntV(5)}) != encodeKey([]column.Value{column.IntV(5)}) {
		t.Fatal("equal keys must encode equally")
	}
}

func TestAggTableMemBytes(t *testing.T) {
	a := NewAggTable(specs())
	if a.MemBytes() != 0 {
		t.Fatal("empty table must report zero payload")
	}
	a.Add([]column.Value{column.StrV("grp")}, []column.Value{column.FloatV(1), {}, column.FloatV(1)})
	if a.MemBytes() == 0 {
		t.Fatal("MemBytes = 0 with a group present")
	}
}

// modelGroup and modelTable are the reference model of AggTable: one map entry
// per group, keyed by the encoded group key, with the same per-group
// arithmetic — the layout the flat body replaced.
type modelGroup struct {
	keys  []column.Value
	count int64
	sums  []float64
	exts  []column.Value
}

type modelTable struct {
	specs  []AggSpec
	groups map[string]*modelGroup
}

func newModelTable(specs []AggSpec) *modelTable {
	return &modelTable{specs: specs, groups: map[string]*modelGroup{}}
}

func (r *modelTable) group(keys []column.Value) *modelGroup {
	ek := EncodeGroupKey(keys)
	g := r.groups[ek]
	if g == nil {
		g = &modelGroup{keys: slices.Clone(keys), sums: make([]float64, len(r.specs)), exts: make([]column.Value, len(r.specs))}
		r.groups[ek] = g
	}
	return g
}

func (r *modelTable) add(keys, vals []column.Value) {
	g := r.group(keys)
	g.count++
	for i, s := range r.specs {
		switch s.Func {
		case Sum, Avg:
			g.sums[i] += vals[i].Float()
		case Count:
			g.sums[i]++
		case Min:
			if g.count == 1 || column.Less(vals[i], g.exts[i]) {
				g.exts[i] = vals[i]
			}
		case Max:
			if g.count == 1 || column.Less(g.exts[i], vals[i]) {
				g.exts[i] = vals[i]
			}
		}
	}
}

func (r *modelTable) fold(keys []column.Value, sign, count int64, sums []float64, exts []column.Value) *modelGroup {
	g := r.group(keys)
	first := g.count == 0
	g.count += sign * count
	for i, s := range r.specs {
		switch s.Func {
		case Sum, Avg, Count:
			g.sums[i] += float64(sign) * sums[i]
		case Min, Max:
			if first || s.Func == Min && column.Less(exts[i], g.exts[i]) ||
				s.Func == Max && column.Less(g.exts[i], exts[i]) {
				g.exts[i] = exts[i]
			}
		}
	}
	return g
}

func (r *modelTable) mergeSigned(b *modelTable, sign int64) {
	for _, g := range b.groups {
		r.fold(g.keys, sign, g.count, g.sums, g.exts)
	}
}

func (r *modelTable) applySigned(d *modelTable) {
	for _, g := range d.groups {
		if g.count == 0 && allZero(g.sums) {
			continue
		}
		if r.fold(g.keys, 1, g.count, g.sums, g.exts).count == 0 {
			delete(r.groups, EncodeGroupKey(g.keys))
		}
	}
}

func (r *modelTable) clone() *modelTable {
	c := newModelTable(r.specs)
	for ek, g := range r.groups {
		c.groups[ek] = &modelGroup{keys: g.keys, count: g.count, sums: slices.Clone(g.sums), exts: slices.Clone(g.exts)}
	}
	return c
}

// table rebuilds the model as an AggTable, one fold per group.
func (r *modelTable) table() *AggTable {
	a := NewAggTable(r.specs)
	for _, g := range r.groups {
		a.fold(g.keys, 1, g.count, g.sums, g.exts)
	}
	return a
}

// checkRef requires a to match its model: bit-identical Rows, Equal both
// ways against the model rebuilt as a table, and the group count.
func checkRef(t *testing.T, what string, a *AggTable, r *modelTable) {
	t.Helper()
	want := r.table()
	if !identical(a, want) {
		t.Fatalf("%s: rows diverge from the reference model\n got %+v\nwant %+v", what, a.Rows(), want.Rows())
	}
	if !a.Equal(want) || !want.Equal(a) {
		t.Fatalf("%s: identical rows but not Equal", what)
	}
	if a.Groups() != len(r.groups) {
		t.Fatalf("%s: Groups = %d, model %d", what, a.Groups(), len(r.groups))
	}
}

// fuzzKeyFloats and fuzzVals are the fuzzed domains: int × float keys with NaN
// and both zeros among the floats, and float inputs with NaN and -0.
var (
	fuzzKeyFloats = []float64{math.NaN(), 0, math.Copysign(0, -1), 2.5}
	fuzzVals      = []float64{1, 0.1, -3.25, 1e9, math.Copysign(0, -1), 7.5, math.NaN(), 0.3}
)

func fuzzKey(b byte) []column.Value {
	return []column.Value{column.IntV(int64(b % 5)), column.FloatV(fuzzKeyFloats[int(b/5)%len(fuzzKeyFloats)])}
}

// runAggOps applies ops to three tables and their models, checking every
// table after every op. withExt adds a MIN and a MAX spec;
// otherwise every aggregate is self-maintainable and signed ops run.
// Each op takes three bytes: the op, a table pair, and an argument.
func runAggOps(t *testing.T, withExt bool, ops []byte) {
	sp := specs()
	if withExt {
		sp = append(sp, AggSpec{Func: Min, Col: ColRef{Table: "I", Col: "Price"}}, AggSpec{Func: Max, Col: ColRef{Table: "I", Col: "Price"}})
	}
	var tabs [3]*AggTable
	var refs [3]*modelTable
	for i := range tabs {
		tabs[i], refs[i] = NewAggTable(sp), newModelTable(sp)
	}
	vals := make([]column.Value, len(sp))
	for p := 0; p+2 < len(ops); p += 3 {
		op, i, j, arg := ops[p]%7, int(ops[p+1]%3), int(ops[p+1]/3%3), ops[p+2]
		switch op {
		case 0, 1: // Add: the common op
			for v := range vals {
				vals[v] = column.FloatV(fuzzVals[(int(arg)+v)%len(fuzzVals)])
			}
			tabs[i].Add(fuzzKey(arg), vals)
			refs[i].add(fuzzKey(arg), vals)
		case 2: // AddGroup
			if withExt {
				continue
			}
			sums := []float64{fuzzVals[arg%8], float64(arg % 3), fuzzVals[arg/8%8]}
			tabs[i].AddGroup(fuzzKey(arg), sums, int64(arg%3))
			refs[i].fold(fuzzKey(arg), 1, int64(arg%3), sums, nil)
		case 3: // Merge / MergeSigned(+1)
			if i == j {
				continue
			}
			if arg%2 == 0 {
				tabs[i].Merge(tabs[j])
			} else {
				tabs[i].MergeSigned(tabs[j], 1)
			}
			refs[i].mergeSigned(refs[j], 1)
		case 4: // MergeSigned(-1): an improper intermediate
			if withExt || i == j {
				continue
			}
			tabs[i].MergeSigned(tabs[j], -1)
			refs[i].mergeSigned(refs[j], -1)
		case 5: // ApplySigned of table j, or of its negation: removals
			if withExt && arg%2 == 1 || i == j && arg%2 == 0 {
				continue
			}
			d, rd := tabs[j], refs[j]
			if arg%2 == 1 {
				d, rd = NewAggTable(sp), newModelTable(sp)
				d.MergeSigned(tabs[j], -1)
				rd.mergeSigned(refs[j], -1)
			}
			tabs[i].ApplySigned(d)
			refs[i].applySigned(rd)
		case 6: // Clone i into j
			tabs[j], refs[j] = tabs[i].Clone(), refs[i].clone()
		}
		for k := range tabs {
			checkRef(t, fmt.Sprintf("op %d (%d on %d,%d) table %d", p/3, op, i, j, k), tabs[k], refs[k])
		}
	}
}

// FuzzAggTable checks random sequences of Add, AddGroup, Merge,
// MergeSigned, ApplySigned and Clone — removals, revivals and clones of
// tables that later diverge included — against the map-based model.
func FuzzAggTable(f *testing.F) {
	f.Add(false, []byte{0, 0, 1, 0, 0, 7, 0, 1, 1, 6, 0, 2, 5, 2, 1, 0, 2, 1, 3, 0, 0})
	f.Add(true, []byte{0, 0, 3, 0, 1, 4, 6, 1, 0, 0, 0, 9, 3, 5, 0, 5, 3, 0, 0, 1, 3})
	f.Add(false, []byte{0, 0, 1, 6, 0, 1, 5, 1, 1, 0, 0, 1, 4, 5, 2, 5, 2, 1, 0, 2, 1, 2, 0, 3})
	f.Fuzz(func(t *testing.T, withExt bool, ops []byte) {
		runAggOps(t, withExt, ops)
	})
}

// TestAggTableRandomOps runs FuzzAggTable's check over seeded random op
// sequences, so the plain test run covers the model check broadly.
func TestAggTableRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 3*(1+rng.Intn(60)))
		rng.Read(ops)
		runAggOps(t, trial%2 == 1, ops)
	}
}

// snapshotOf deep-copies a into fresh storage: unlike Clone, nothing is
// shared with a.
func snapshotOf(a *AggTable) *AggTable {
	s := NewAggTable(a.specs)
	s.Merge(a)
	return s
}

func cloneFixture(groups int) *AggTable {
	a := NewAggTable(specs())
	for g := 0; g < groups; g++ {
		v := column.FloatV(float64(g) + 0.25)
		a.Add([]column.Value{column.IntV(int64(g)), column.StrV("k")}, []column.Value{v, {}, v})
	}
	return a
}

// removeGroups drops the groups with keys lo..hi-1 from a through one
// ApplySigned.
func removeGroups(a *AggTable, lo, hi int64) {
	gone := NewAggTable(a.specs)
	for s := 0; s < a.n; s++ {
		if g := a.slotKeys(s)[0].I; a.isLive(s) && lo <= g && g < hi {
			gone.fold(a.slotKeys(s), -1, a.counts[s], a.slotSums(s), nil)
		}
	}
	a.ApplySigned(gone)
}

// TestCloneIsolation: after a clone, mutating either side — a new group,
// a removal, a revival, a compaction, an accumulator, a merge, a
// fault-injection Perturb — leaves the other side unchanged; so do
// mutations of a clone of a clone. A clone's arrays end at their length, so
// no append on one side can write into storage the other still reads.
// The concurrent half runs clones being compensated on their own
// goroutines while the original takes merge-time folds, removals, revivals
// and a compaction: the manager's pattern, where entries mutate under its
// lock and earlier clones are compensated outside it (run it under -race).
func TestCloneIsolation(t *testing.T) {
	v := []column.Value{column.FloatV(9.5), {}, column.FloatV(9.5)}
	key := func(g int64) []column.Value { return []column.Value{column.IntV(g), column.StrV("k")} }
	mutations := []struct {
		name string
		f    func(a *AggTable)
	}{
		{"new group", func(a *AggTable) { a.Add(key(1000), v) }},
		{"many new groups", func(a *AggTable) {
			for g := int64(2000); g < 2100; g++ {
				a.Add(key(g), v)
			}
		}},
		{"sums", func(a *AggTable) { a.Add(key(3), v) }},
		{"removal", func(a *AggTable) { removeGroups(a, 4, 5) }},
		{"revival", func(a *AggTable) { removeGroups(a, 5, 6); a.Add(key(5), v) }},
		{"compaction", func(a *AggTable) { removeGroups(a, 0, 30); a.Add(key(2), v) }},
		// compact on its own, without a fold before it to own the arrays:
		// the fixture's tombstone makes every later slot move down.
		{"bare compaction", func(a *AggTable) { a.compact() }},
		{"perturb", func(a *AggTable) { a.Perturb(3) }},
		{"merge", func(a *AggTable) { a.Merge(cloneFixture(10)) }},
	}
	for _, m := range mutations {
		for _, side := range []string{"original", "clone", "clone of clone"} {
			orig := cloneFixture(40)
			removeGroups(orig, 7, 8) // a tombstone to carry across the clone
			c := orig.Clone()
			cc := c.Clone()
			for _, x := range []*AggTable{c, cc} {
				if cap(x.keys) != len(x.keys) || cap(x.counts) != len(x.counts) ||
					cap(x.sums) != len(x.sums) || cap(x.exts) != len(x.exts) {
					t.Fatal("a clone's arrays run past their length into shared storage")
				}
			}
			target, others := orig, []*AggTable{c, cc}
			switch side {
			case "clone":
				target, others = c, []*AggTable{orig, cc}
			case "clone of clone":
				target, others = cc, []*AggTable{orig, c}
			}
			before := []*AggTable{snapshotOf(others[0]), snapshotOf(others[1])}
			m.f(target)
			for i, o := range others {
				if !identical(o, before[i]) {
					t.Fatalf("%s on the %s changed another table", m.name, side)
				}
			}
			if want := snapshotOf(target); !identical(target, want) {
				t.Fatalf("%s on the %s: table and its copy differ", m.name, side)
			}
		}
	}

	entry := cloneFixture(200)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		// Clone and snapshot while no writer runs: under the cache lock.
		c := entry.Clone()
		want := snapshotOf(c)
		wg.Add(1)
		go func(r int64) {
			defer wg.Done()
			for i := int64(0); i < 50; i++ {
				_ = c.Rows()
				c.Add(key(5000+r*100+i), v) // delta compensation: new groups
				want.Add(key(5000+r*100+i), v)
				c.Add(key(i), v)
				want.Add(key(i), v)
			}
			if !identical(c, want) {
				t.Errorf("clone %d diverged from its snapshot under concurrent entry writes", r)
			}
		}(int64(r))
		// The entry moves on: a merge-time fold with new groups, a
		// removal and a revival.
		fold := NewAggTable(entry.specs)
		for g := int64(0); g < 30; g++ {
			fold.Add(key(300+int64(r)*30+g), v)
			fold.Add(key(g), v)
		}
		entry.Merge(fold)
		removeGroups(entry, int64(10+r), int64(11+r))
		entry.Add(key(int64(10+r)), v)
		if r == 4 {
			// Most groups go at once: the entry compacts its slots.
			removeGroups(entry, 0, 5000)
		}
	}
	wg.Wait()
}

// TestCloneAllocs: cloning allocates exactly one object — the new table's
// header, the same bytes — at 20 and at 2 000 groups, with and without
// MIN/MAX extremes: all five arrays are shared copy-on-write.
func TestCloneAllocs(t *testing.T) {
	withExt := func(a *AggTable) *AggTable {
		sp := append(slices.Clone(a.specs), AggSpec{Func: Max, Col: ColRef{Table: "I", Col: "Price"}})
		b := NewAggTable(sp)
		for s := 0; s < a.n; s++ {
			b.Add(a.slotKeys(s), []column.Value{column.FloatV(1), {}, column.FloatV(1), column.FloatV(float64(s))})
		}
		return b
	}
	for _, ext := range []bool{false, true} {
		var allocs, bytes [2]float64
		for i, groups := range []int{20, 2000} {
			a := cloneFixture(groups)
			if ext {
				a = withExt(a)
			}
			allocs[i] = testing.AllocsPerRun(50, func() { cloneSink = a.Clone() })
			bytes[i] = bytesPerRun(50, func() { cloneSink = a.Clone() })
		}
		if allocs != [2]float64{1, 1} || bytes[0] != bytes[1] {
			t.Fatalf("extremes %v: Clone allocations %v, bytes %v at 20 and 2000 groups; want 1 and equal bytes",
				ext, allocs, bytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// one call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// cloneSink keeps TestCloneAllocs' clones on the heap, as the cache's are.
var cloneSink *AggTable

// TestResetLeavesClonesIntact: the executor resets its pooled job partials
// for reuse; a clone taken of a partial (the recycler keeps one) must keep
// its groups, keys and index through the reset and the refill.
func TestResetLeavesClonesIntact(t *testing.T) {
	a := cloneFixture(40)
	c := a.Clone()
	want := snapshotOf(c)
	a.reset(specs())
	for g := 0; g < 60; g++ {
		v := column.FloatV(float64(g))
		a.Add([]column.Value{column.IntV(int64(1000 + g)), column.StrV("x")}, []column.Value{v, {}, v})
	}
	if !identical(c, want) || !want.Equal(c) || !c.Equal(want) {
		t.Fatal("resetting and refilling a table changed its clone")
	}
}

// TestResetSharedKeepsCapacity: resetting a table that shares its arrays
// with a clone gives it fresh keys and index of the old size, so a refill
// of as many groups regrows neither.
func TestResetSharedKeepsCapacity(t *testing.T) {
	a := cloneFixture(40)
	keys, cells := cap(a.keys), len(a.index.slots)
	c := a.Clone()
	a.reset(specs())
	if cap(a.keys) != keys || len(a.index.slots) != cells || a.shared.Load() {
		t.Fatalf("after reset: keys cap %d, %d index cells, shared %v; want %d, %d, false",
			cap(a.keys), len(a.index.slots), a.shared.Load(), keys, cells)
	}
	for g := 0; g < 40; g++ {
		v := column.FloatV(float64(g))
		a.Add([]column.Value{column.IntV(int64(1000 + g)), column.StrV("x")}, []column.Value{v, {}, v})
	}
	if cap(a.keys) != keys || len(a.index.slots) != cells {
		t.Fatalf("refill regrew: keys cap %d -> %d, index cells %d -> %d", keys, cap(a.keys), cells, len(a.index.slots))
	}
	if c.Groups() != 40 {
		t.Fatalf("clone has %d groups, want 40", c.Groups())
	}
}

// TestChurnStaysBounded: a table that keeps losing its groups to
// ApplySigned and gaining new keys — a long-lived cache entry grouping by a
// high-cardinality id under deletes — stays proportional to its live
// groups; tombstones do not accumulate.
func TestChurnStaysBounded(t *testing.T) {
	a := cloneFixture(50)
	for round := int64(1); round <= 40; round++ {
		removeGroups(a, (round-1)*50, round*50)
		for g := round * 50; g < (round+1)*50; g++ {
			v := column.FloatV(float64(g))
			a.Add([]column.Value{column.IntV(g), column.StrV("k")}, []column.Value{v, {}, v})
		}
		if a.Groups() != 50 || a.n > 2*a.Groups()+1 || len(a.index.slots) > 256 {
			t.Fatalf("round %d: %d groups in %d slots, %d index cells", round, a.Groups(), a.n, len(a.index.slots))
		}
	}
	want := NewAggTable(specs())
	for g := int64(2000); g < 2050; g++ {
		v := column.FloatV(float64(g))
		want.Add([]column.Value{column.IntV(g), column.StrV("k")}, []column.Value{v, {}, v})
	}
	if !identical(a, want) || !a.Equal(want) {
		t.Fatal("churned table differs from one built from its live groups")
	}
}
