package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/obs"
	"aggcache/internal/vec"
)

// Determinism contract of the parallel pipeline: results and Stats are
// byte-identical for every worker-pool size, including the sequential
// fallback (workers=1) and the GOMAXPROCS default (workers=0).
func TestExecuteAllDeterministicAcrossWorkers(t *testing.T) {
	queries := map[string]*Query{
		"listing1": listing1(),
		"twoTable": {
			Tables: []string{"Header", "Item"},
			Joins: []JoinEdge{
				{Left: ColRef{Table: "Header", Col: "HeaderID"}, Right: ColRef{Table: "Item", Col: "HeaderID"}},
			},
			GroupBy: []ColRef{{Table: "Item", Col: "CategoryID"}},
			Aggs:    []AggSpec{{Func: Sum, Col: ColRef{Table: "Item", Col: "Price"}, As: "S"}},
		},
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			db := buildERP(t)
			seedERP(t, db)
			snap := db.Txns().ReadSnapshot()

			type run struct {
				rows any
				st   Stats
			}
			var base *run
			for _, workers := range []int{1, 0, 2, 8} {
				ex := &Executor{DB: db, Workers: workers}
				res, st, err := ex.ExecuteAll(q, snap)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				cur := &run{rows: res.Rows(), st: st}
				if base == nil {
					base = cur
					continue
				}
				if !reflect.DeepEqual(base.rows, cur.rows) {
					t.Errorf("workers=%d rows diverge:\n got %+v\nwant %+v", workers, cur.rows, base.rows)
				}
				if base.st != cur.st {
					t.Errorf("workers=%d stats diverge:\n got %+v\nwant %+v", workers, cur.st, base.st)
				}
			}
		})
	}
}

// The exec.parallel_subjoins counter must tick once per job that runs on a
// pool worker, and stay untouched on the sequential fallback.
func TestParallelSubjoinsCounter(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	snap := db.Txns().ReadSnapshot()
	q := listing1()

	reg := obs.NewRegistry()
	par := &Executor{DB: db, Workers: 8, ParallelSubjoins: reg.Counter("exec.parallel_subjoins")}
	if _, st, err := par.ExecuteAll(q, snap); err != nil {
		t.Fatal(err)
	} else if got := par.ParallelSubjoins.Value(); got != int64(st.Subjoins) {
		t.Fatalf("parallel_subjoins = %d, want %d (all %d jobs on pool workers)", got, st.Subjoins, st.Subjoins)
	}

	seq := &Executor{DB: db, Workers: 1, ParallelSubjoins: reg.Counter("seq.parallel_subjoins")}
	if _, _, err := seq.ExecuteAll(q, snap); err != nil {
		t.Fatal(err)
	} else if got := seq.ParallelSubjoins.Value(); got != 0 {
		t.Fatalf("sequential fallback incremented parallel_subjoins to %d", got)
	}
}

// ExecuteJobs must fold private job results into out in job order no matter
// which worker finishes first, so repeated parallel runs stay identical.
func TestExecuteJobsRepeatable(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	snap := db.Txns().ReadSnapshot()
	q := listing1()
	ex := &Executor{DB: db, Workers: 8}

	jobs := make([]ComboJob, 0, 8)
	for _, combo := range AllCombos(db, q) {
		jobs = append(jobs, ComboJob{Combo: combo})
	}
	var baseRows any
	var baseStats Stats
	for i := 0; i < 5; i++ {
		out := NewAggTable(q.Aggs)
		var st Stats
		if err := ex.ExecuteJobs(q, jobs, snap, out, &st, nil); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			baseRows, baseStats = out.Rows(), st
			continue
		}
		if !reflect.DeepEqual(baseRows, out.Rows()) {
			t.Fatalf("run %d rows diverge:\n got %+v\nwant %+v", i, out.Rows(), baseRows)
		}
		if st != baseStats {
			t.Fatalf("run %d stats diverge:\n got %+v\nwant %+v", i, st, baseStats)
		}
	}
}

// Regression: RowsScanned on the restricted path counted every set bit of
// the caller's bitset, including bits past the store's row count. A restrict
// set sized larger than the store (routine for cached main-visibility sets
// allocated in whole words) must count only rows the scan can inspect.
func TestRestrictScanCountsOnlyStoreRows(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	q := listing1()
	combo := Combo{
		{Table: "Header", Part: 0, Main: true},
		{Table: "Item", Part: 0, Main: true},
		{Table: "ProductCategory", Part: 0, Main: true},
	}
	restrict := make([]*vec.BitSet, len(combo))
	wantScanned := int64(0)
	for i, ref := range combo {
		n := ref.Resolve(db).Rows()
		wantScanned += int64(n)
		set := vec.NewBitSet(n + 64) // oversized, as cached visibility sets are
		set.SetAll()
		restrict[i] = set
	}
	if wantScanned != 8 {
		t.Fatalf("fixture changed: main stores hold %d rows, want 8", wantScanned)
	}
	ex := &Executor{DB: db}
	out := NewAggTable(q.Aggs)
	var st Stats
	if err := ex.ExecuteComboRestricted(q, combo, db.Txns().ReadSnapshot(), nil, restrict, out, &st); err != nil {
		t.Fatal(err)
	}
	if st.RowsScanned != wantScanned {
		t.Fatalf("RowsScanned = %d, want %d (oversized restrict bits leaked in)", st.RowsScanned, wantScanned)
	}
	if st.ScanVecRows+st.ScanScalarRows != wantScanned {
		t.Fatalf("scan path split %d+%d does not cover %d scanned rows",
			st.ScanVecRows, st.ScanScalarRows, wantScanned)
	}
}

// The join kernel must not allocate in the steady state: the gathered IDs,
// the CSR, the translation and the output tuples all reuse the scratch's
// arrays, and a main × main translation is cached on the probe main after
// the first join. Int64 and string keys, both build orientations, every
// main/delta pairing.
func TestJoinKernelZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []column.Kind{column.Int64, column.String} {
		cols := map[string]column.Reader{
			"main":  genColumn(rng, kernelCol{kind: kind, main: true, distinct: 257}, true),
			"delta": genColumn(rng, kernelCol{kind: kind, distinct: 100}, true),
			"main2": genColumn(rng, kernelCol{kind: kind, main: true, distinct: 60}, true),
		}
		for _, pair := range [][2]string{{"main", "delta"}, {"delta", "main"}, {"main", "main2"}, {"main2", "main"}} {
			for _, buildTuples := range []bool{false, true} {
				from, col := cols[pair[0]], cols[pair[1]]
				kj := newKernelJoin(from, allRows(from), col, allRows(col))
				scr := new(execScratch)
				if n := kj.run(scr, buildTuples); n == 0 { // warms the scratch and the translation cache
					t.Fatalf("%v %s x %s: no matches; kernel broken", kind, pair[0], pair[1])
				}
				if allocs := testing.AllocsPerRun(20, func() { kj.run(scr, buildTuples) }); allocs != 0 {
					t.Fatalf("%v %s x %s build-tuples=%v: join allocates %.1f per run, want 0",
						kind, pair[0], pair[1], buildTuples, allocs)
				}
			}
		}
	}
}

// The join phase — planning plus both kernel orientations — must not
// allocate in the steady state: the plan, the tuple indices and the tuple
// columns all live in the scratch. listing1's all-main subjoin over every
// row starts at Header (2 rows), builds on the tuple side to add Item
// (3 rows), then on the store side to add ProductCategory (3 rows, a tie).
func TestJoinPhaseZeroAlloc(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	q := listing1()
	combo := Combo{
		{Table: "Header", Part: 0, Main: true},
		{Table: "Item", Part: 0, Main: true},
		{Table: "ProductCategory", Part: 0, Main: true},
	}
	ex := &Executor{DB: db}
	scr := getScratch()
	defer putScratch(scr)
	scr.ensureTables(len(combo))
	for i, ref := range combo {
		scr.stores[i] = ref.Resolve(db)
		scr.rowsPer[i] = nil
		for r := 0; r < scr.stores[i].Rows(); r++ {
			scr.rowsPer[i] = append(scr.rowsPer[i], int32(r))
		}
	}
	sp := obs.StartSpan("subjoin")
	if _, n, err := ex.joinPhase(scr, q, combo, nil, nil, sp); err != nil || n != 5 {
		t.Fatalf("join = %d tuples, %v; want 5", n, err)
	}
	want := "Header[0].main>Item[0].main(build=tuples)>ProductCategory[0].main(build=store)"
	if got, _ := sp.GetAttr("join-order"); got != want {
		t.Fatalf("join-order = %q, want %q", got, want)
	}
	var tuples int
	allocs := testing.AllocsPerRun(20, func() {
		_, n, _ := ex.joinPhase(scr, q, combo, nil, nil, nil)
		tuples += n
	})
	if allocs != 0 {
		t.Fatalf("join phase allocates %.1f per run, want 0", allocs)
	}
	if tuples != 5*21 {
		t.Fatalf("steady-state joins produced %d tuples over 21 runs, want %d", tuples, 5*21)
	}
}

// The vectorized scan kernel must not allocate in the steady state either:
// visibility words, filter words, and the candidate-row list all live in the
// scratch.
func TestScanStoreZeroAlloc(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	tbl := db.MustTable("Header")
	store := StoreRef{Table: "Header", Part: 0, Main: true}.Resolve(db)
	pred := expr.Cmp{Col: "FiscalYear", Op: expr.Eq, Val: column.IntV(2013)}
	bound, err := pred.Bind(tbl.Schema().ColIndex, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bound.(expr.WordEvaler); !ok {
		t.Fatal("int comparison must support word-at-a-time evaluation")
	}
	snap := db.Txns().ReadSnapshot()
	scr := getScratch()
	defer putScratch(scr)
	var dst []int32
	dst, _, _, _ = scr.scanStore(store, snap, nil, bound, dst) // warm the buffers
	var total int
	allocs := testing.AllocsPerRun(20, func() {
		var vecRows int64
		dst, _, vecRows, _ = scr.scanStore(store, snap, nil, bound, dst)
		total += len(dst)
		if vecRows == 0 {
			total = -1 << 30
		}
	})
	if allocs != 0 {
		t.Fatalf("scanStore allocates %.1f per run, want 0", allocs)
	}
	if total <= 0 {
		t.Fatal("scan found no rows through the vectorized path")
	}
}

// The aggregation phase must not allocate in the steady state either: slot
// assignment, accumulators and decoded keys live in the kernel's scratch,
// and once the output holds every group, folding allocates nothing. Covers
// each grouping mode and MIN/MAX over every kind.
func TestAggregationPhaseZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		keys []kernelCol
		aggs []kernelAgg
		mode groupMode
	}{
		{"string key", []kernelCol{strMainCol(20)}, sumCountAvg, groupDense},
		{"composite key", []kernelCol{strDelta(20), intMainCol(12), fltMainCol(5)}, sumCountAvg, groupDense},
		{"hash fallback", []kernelCol{intDelta(300), strMainCol(300)}, sumCountAvg, groupHash},
		{"hash past 64 bits", wideKeys(), sumCountAvg, groupHash},
		{"min max", []kernelCol{strDelta(8)}, allFuncs, groupDense},
	}
	for i, c := range cases {
		kc := newKernelCase(rand.New(rand.NewSource(int64(i))), c.keys, c.aggs, 2000, false)
		out := NewAggTable(kc.specs)
		var k groupKernel
		run := func() groupMode {
			mode, _ := k.aggregate(kc.specs, kc.keyCols, kc.keyRows, kc.aggCols, kc.aggRows, kc.n, out)
			return mode
		}
		if mode := run(); mode != c.mode { // populates out and warms the scratch
			t.Fatalf("%s: mode %v, want %v", c.name, mode, c.mode)
		}
		if allocs := testing.AllocsPerRun(20, func() { run() }); allocs != 0 {
			t.Fatalf("%s: aggregation allocates %.1f per run, want 0", c.name, allocs)
		}
	}
}

// BenchmarkJoinKernel measures the join kernel: a store-side build over n
// rows of n/4 distinct keys, probed by n tuples over n/2 keys, so half the
// probes miss and each hit finds about four partners. main×main probes
// through the cached translation, delta×main through a per-join one.
func BenchmarkJoinKernel(b *testing.B) {
	const n = 8192
	for _, kind := range []column.Kind{column.Int64, column.String} {
		for _, probeMain := range []bool{true, false} {
			build := benchJoinColumn(kind, true, n, n/4)
			probe := benchJoinColumn(kind, probeMain, n, n/2)
			kj := newKernelJoin(probe, allRows(probe), build, allRows(build))
			pair := "delta-x-main"
			if probeMain {
				pair = "main-x-main"
			}
			b.Run(fmt.Sprintf("%v/%s", kind, pair), func(b *testing.B) {
				scr := new(execScratch)
				kj.run(scr, false)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kj.run(scr, false)
				}
			})
		}
	}
}

// benchJoinColumn builds a main or delta column of n rows cycling through d
// keys.
func benchJoinColumn(kind column.Kind, main bool, n, d int) column.Reader {
	if main {
		mb := column.NewMainBuilder(kind)
		for i := 0; i < n; i++ {
			mb.Append(genValue(nil, kind, i%d, true))
		}
		return mb.Build()
	}
	dc := column.NewDelta(kind)
	for i := 0; i < n; i++ {
		dc.Append(genValue(nil, kind, i%d, true))
	}
	return dc
}

// BenchmarkCandidateRows measures the vectorized scan kernel over a merged
// main store with an int equality predicate (~20% selectivity).
func BenchmarkCandidateRows(b *testing.B) {
	db := buildERP(b)
	tx := db.Txns().Begin()
	const rows = 50000
	for i := 0; i < rows; i++ {
		if _, err := db.MustTable("Header").Insert(tx, []column.Value{
			column.IntV(int64(i)), column.IntV(int64(2010 + i%5)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	tx.Commit()
	if err := db.MergeTablesOnline(false, "Header"); err != nil {
		b.Fatal(err)
	}
	tbl := db.MustTable("Header")
	store := StoreRef{Table: "Header", Part: 0, Main: true}.Resolve(db)
	pred := expr.Cmp{Col: "FiscalYear", Op: expr.Eq, Val: column.IntV(2013)}
	bound, err := pred.Bind(tbl.Schema().ColIndex, store)
	if err != nil {
		b.Fatal(err)
	}
	snap := db.Txns().ReadSnapshot()
	scr := getScratch()
	defer putScratch(scr)
	var dst []int32
	dst, _, _, _ = scr.scanStore(store, snap, nil, bound, dst)
	if len(dst) != rows/5 {
		b.Fatalf("selectivity off: %d candidates, want %d", len(dst), rows/5)
	}
	b.SetBytes(int64(rows * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, _, _ = scr.scanStore(store, snap, nil, bound, dst)
	}
	_ = fmt.Sprintf("%d", len(dst))
}

// Traced parallel execution must annotate every subjoin span with the pool
// worker that ran it and its queue/run time split, and declare the pool size
// on the parent span; the sequential fallback leaves spans unannotated.
func TestExecuteAllSpanWorkerAttrs(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	snap := db.Txns().ReadSnapshot()
	q := listing1()

	ex := &Executor{DB: db, Workers: 4}
	sp := obs.StartSpan("execute-all")
	if _, st, err := ex.ExecuteAllSpan(q, snap, sp); err != nil {
		t.Fatal(err)
	} else if st.Subjoins == 0 {
		t.Fatal("no subjoins planned")
	}
	sp.End()
	if v, ok := sp.GetAttr("workers"); !ok || v != fmt.Sprint(ex.PoolSize(len(sp.Children))) {
		t.Fatalf("parent workers attr = %q, %v", v, ok)
	}
	pool := ex.PoolSize(len(sp.Children))
	for _, c := range sp.Children {
		w, ok := c.GetAttr("worker")
		if !ok {
			t.Fatalf("subjoin span %q missing worker attr (attrs %v)", c.Name, c.Attrs)
		}
		var wid int
		fmt.Sscanf(w, "%d", &wid)
		if wid < 0 || wid >= pool {
			t.Fatalf("subjoin span %q worker = %s, pool size %d", c.Name, w, pool)
		}
		if _, ok := c.GetAttr("queue_us"); !ok {
			t.Fatalf("subjoin span %q missing queue_us", c.Name)
		}
		run, ok := c.GetAttr("run_us")
		if !ok || run != fmt.Sprint(c.Dur.Microseconds()) {
			t.Fatalf("subjoin span %q run_us = %q, want %d", c.Name, run, c.Dur.Microseconds())
		}
	}

	seq := &Executor{DB: db, Workers: 1}
	ssp := obs.StartSpan("execute-all")
	if _, _, err := seq.ExecuteAllSpan(q, snap, ssp); err != nil {
		t.Fatal(err)
	}
	ssp.End()
	if _, ok := ssp.GetAttr("workers"); ok {
		t.Fatal("sequential fallback declared a pool size")
	}
	for _, c := range ssp.Children {
		if _, ok := c.GetAttr("worker"); ok {
			t.Fatalf("sequential subjoin span %q carries worker attr", c.Name)
		}
	}
}
