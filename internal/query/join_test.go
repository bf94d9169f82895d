package query

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/obs"
	"aggcache/internal/table"
)

// treeCase is one random tree-shaped join: tables T0..Tn-1, where table c>0
// joins its parent through T<parent>.k<c> = T<c>.up, or through the
// parent's primary key, T<parent>.id = T<c>.up. The generator keeps every
// live row in memory, so the reference below never reads the database back.
type treeCase struct {
	q       *Query
	parent  []int              // tree parent per table (-1 for T0)
	keyKind []column.Kind      // keyKind[c]: the kind of the edge from c to its parent
	live    [][][]column.Value // live rows per table: id, g, v, then join keys
	upCol   []int              // column of T<c>.up in T<c>'s rows
	keyCol  []int              // column of the parent's join key for c in its rows
	filter  []int64            // bound of the table's filter v < bound; 0: none
}

// newTreeCase builds a database for a random tree of 3–7 tables with skewed
// sizes (one table of 1 to 3 rows, the others 4 to 120), small key domains
// (duplicate keys) or primary-key joins, edges whose key ranges are
// disjoint (joins that run empty), part of the rows merged into main and
// some of them deleted afterwards.
func newTreeCase(t *testing.T, rng *rand.Rand) (*table.DB, *treeCase) {
	t.Helper()
	n := 3 + rng.Intn(5)
	tc := &treeCase{parent: make([]int, n), keyKind: make([]column.Kind, n), live: make([][][]column.Value, n),
		upCol: make([]int, n), keyCol: make([]int, n), filter: make([]int64, n)}
	domain := make([]int, n)
	keyed := make([]bool, n) // the edge joins through the parent's id
	missing := make([]bool, n)
	tc.parent[0] = -1
	for c := 1; c < n; c++ {
		tc.parent[c] = rng.Intn(c)
		tc.keyKind[c] = column.Kind(rng.Intn(3))
		keyed[c] = tc.keyKind[c] == column.Int64 && rng.Intn(3) == 0
		domain[c] = 1 + rng.Intn(6)
		missing[c] = rng.Intn(12) == 0 // the child's keys miss every parent key
	}
	sizes := make([]int, n)
	key := func(c, v int) column.Value {
		switch tc.keyKind[c] {
		case column.String:
			return column.StrV(fmt.Sprintf("s%d", v))
		case column.Float64:
			return column.FloatV(float64(v) / 4)
		}
		return column.IntV(int64(v))
	}

	db := table.Open()
	q := &Query{Filters: map[string]expr.Pred{}}
	small, large := []int{1, 2, 3}, []int{4, 8, 20, 60, 120}
	anchor := rng.Intn(n) // the one small table: every position gets to start
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("T%d", i)
		cols := []table.ColumnDef{{Name: "id", Kind: column.Int64}, {Name: "g", Kind: column.Int64}, {Name: "v", Kind: column.Int64}}
		if i > 0 {
			tc.upCol[i] = len(cols)
			cols = append(cols, table.ColumnDef{Name: "up", Kind: key(i, 0).K})
		}
		for c := i + 1; c < n; c++ {
			if tc.parent[c] == i && !keyed[c] {
				tc.keyCol[c] = len(cols)
				cols = append(cols, table.ColumnDef{Name: fmt.Sprintf("k%d", c), Kind: key(c, 0).K})
			}
		}
		tbl := mustCreate(t, db, table.Schema{Name: name, Cols: cols, PK: "id"})
		q.Tables = append(q.Tables, name)
		if i > 0 {
			left := ColRef{Table: fmt.Sprintf("T%d", tc.parent[i]), Col: fmt.Sprintf("k%d", i)}
			if keyed[i] {
				left.Col = "id"
				domain[i] = sizes[tc.parent[i]]
			}
			q.Joins = append(q.Joins, JoinEdge{Left: left, Right: ColRef{Table: name, Col: "up"}})
		}
		offset := 0
		if missing[i] {
			offset = domain[i]
		}

		rows := large[rng.Intn(len(large))]
		if i == anchor {
			rows = small[rng.Intn(len(small))]
		}
		sizes[i] = rows
		merged := rng.Intn(rows + 1)
		for r := 0; r < rows; r++ {
			vals := []column.Value{column.IntV(int64(r)), column.IntV(int64(rng.Intn(4))), column.IntV(int64(rng.Intn(10)))}
			if i > 0 {
				vals = append(vals, key(i, offset+rng.Intn(domain[i])))
			}
			for c := i + 1; c < n; c++ {
				if tc.parent[c] == i && !keyed[c] {
					vals = append(vals, key(c, rng.Intn(domain[c])))
				}
			}
			insert(t, db, name, vals...)
			tc.live[i] = append(tc.live[i], vals)
			if r+1 == merged {
				if err := db.MergeTablesOnline(false, name); err != nil {
					t.Fatal(err)
				}
			}
		}
		for d := rng.Intn(3); d > 0 && len(tc.live[i]) > 1; d-- {
			victim := rng.Intn(len(tc.live[i]))
			tx := db.Txns().Begin()
			if err := tbl.Delete(tx, tc.live[i][victim][0].I); err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			tc.live[i] = append(tc.live[i][:victim], tc.live[i][victim+1:]...)
		}
		if rng.Intn(3) == 0 {
			bound := int64(1 + rng.Intn(10))
			tc.filter[i] = bound
			q.Filters[name] = expr.Cmp{Col: "v", Op: expr.Lt, Val: column.IntV(bound)}
		}
	}
	gt, at := rng.Intn(n), rng.Intn(n)
	q.GroupBy = []ColRef{{Table: fmt.Sprintf("T%d", gt), Col: "g"}}
	q.Aggs = []AggSpec{
		{Func: Sum, Col: ColRef{Table: fmt.Sprintf("T%d", at), Col: "v"}, As: "S"},
		{Func: Count, As: "N"},
	}
	if err := q.Validate(db); err != nil {
		t.Fatal(err)
	}
	tc.q = q
	return db, tc
}

// refGroup is one group of the reference result.
type refGroup struct {
	sum   int64
	count int64
}

// nestedLoop evaluates the case with plain nested loops in query table
// order — each table's rows tested against its parent's bound row, no hash
// table, no planner. It gives up (ok false) past limit row comparisons.
func (tc *treeCase) nestedLoop(limit int) (groups map[int64]refGroup, tuples int64, ok bool) {
	n := len(tc.q.Tables)
	gt := tablePos(tc.q, tc.q.GroupBy[0].Table)
	at := tablePos(tc.q, tc.q.Aggs[0].Col.Table)
	groups = map[int64]refGroup{}
	bound := make([][]column.Value, n)
	work := 0
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			g := groups[bound[gt][1].I]
			g.sum += bound[at][2].I
			g.count++
			groups[bound[gt][1].I] = g
			tuples++
			return true
		}
		for _, row := range tc.live[i] {
			if work++; work > limit {
				return false
			}
			if b := tc.filter[i]; b > 0 && row[2].I >= b {
				continue
			}
			if i > 0 && bound[tc.parent[i]][tc.keyCol[i]] != row[tc.upCol[i]] {
				continue
			}
			bound[i] = row
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	ok = rec(0)
	return groups, tuples, ok
}

// planCoverage tallies what the executor's plans did across cases, read
// off the join-order span attribute.
type planCoverage struct {
	starts map[int]bool
	builds map[string]bool // "tuples/int64", "store/float64", ...
	empty  bool
}

func (pc *planCoverage) record(t *testing.T, tc *treeCase, sp *obs.Span) {
	for _, c := range sp.Children {
		if _, ok := c.GetAttr("empty-after-join"); ok {
			pc.empty = true
		}
		plan, ok := c.GetAttr("join-order")
		if !ok {
			continue
		}
		joined := map[int]bool{}
		for si, tok := range strings.Split(plan, ">") {
			var pos int
			if _, err := fmt.Sscanf(tok, "T%d[", &pos); err != nil {
				t.Fatalf("unparseable join-order %q: %v", plan, err)
			}
			if si == 0 {
				pc.starts[pos] = true
				joined[pos] = true
				continue
			}
			// The step's edge is pos's own edge when its parent is already
			// joined, else the edge of the joined child hanging below it.
			edgeOwner := pos
			if p := tc.parent[pos]; p < 0 || !joined[p] {
				for ch := range tc.parent {
					if tc.parent[ch] == pos && joined[ch] {
						edgeOwner = ch
					}
				}
			}
			kind := tc.keyKind[edgeOwner].String()
			side := "store"
			if strings.HasSuffix(tok, "(build=tuples)") {
				side = "tuples"
			}
			pc.builds[side+"/"+kind] = true
			joined[pos] = true
		}
	}
}

// TestJoinOrderMatchesNestedLoop: for random tree-shaped joins, the
// executor's rows and TuplesJoined equal the nested-loop reference, and the
// cases together make the planner start at every table position and use
// both build orientations for int64, float64 and string keys.
func TestJoinOrderMatchesNestedLoop(t *testing.T) {
	cov := planCoverage{starts: map[int]bool{}, builds: map[string]bool{}}
	checked := 0
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, tc := newTreeCase(t, rng)
		want, wantTuples, ok := tc.nestedLoop(300000)
		if !ok {
			continue // join too large for the reference; the next seed
		}
		checked++
		ex := &Executor{DB: db, Workers: 1 + rng.Intn(3)}
		sp := obs.StartSpan("execute-all")
		res, st, err := ex.ExecuteAll(tc.q, db.Txns().ReadSnapshot(), sp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.TuplesJoined != wantTuples {
			t.Fatalf("seed %d (%s): TuplesJoined = %d, reference %d", seed, tc.q.Fingerprint(), st.TuplesJoined, wantTuples)
		}
		rows := res.Rows()
		if len(rows) != len(want) {
			t.Fatalf("seed %d (%s): %d groups, reference %d", seed, tc.q.Fingerprint(), len(rows), len(want))
		}
		for _, r := range rows {
			g := want[r.Keys[0].I]
			if r.Aggs[0].F != float64(g.sum) || r.Aggs[1].I != g.count || r.Count != g.count {
				t.Fatalf("seed %d (%s): group %d = sum %v count %d, reference %+v",
					seed, tc.q.Fingerprint(), r.Keys[0].I, r.Aggs[0].F, r.Count, g)
			}
		}
		cov.record(t, tc, sp)
	}
	if checked < 200 {
		t.Fatalf("only %d of 240 cases fit the reference; shrink the generator", checked)
	}
	for pos := 0; pos < 7; pos++ {
		if !cov.starts[pos] {
			t.Errorf("no plan started at table position %d", pos)
		}
	}
	for _, b := range []string{"tuples/int64", "store/int64", "tuples/float64", "store/float64", "tuples/string", "store/string"} {
		if !cov.builds[b] {
			t.Errorf("no step built on %s", b)
		}
	}
	if !cov.empty {
		t.Error("no subjoin ran empty after a join")
	}
}

// kernelJoin is one standalone run of the join kernel: tuples over fromCol
// joined to candidate rows of col, as the second table of a two-table join.
type kernelJoin struct {
	fromCol, col column.Reader
	rows         []int32
	tupleCols    [][]int32
	joined       []int
}

func newKernelJoin(fromCol column.Reader, tuples []int32, col column.Reader, rows []int32) *kernelJoin {
	return &kernelJoin{fromCol: fromCol, col: col, rows: rows, tupleCols: [][]int32{tuples, nil}, joined: []int{0}}
}

// run joins on the given build side, probing shared instead of building
// when it is non-nil, and returns the number of output tuples. The output
// is scr.tupleIdx (the input tuple per output tuple) and
// scr.stageCols[0][1] (the row of col per output tuple).
func (kj *kernelJoin) runShared(scr *execScratch, buildTuples bool, shared *BuildTable) int {
	out := scr.join(0, kj.tupleCols, kj.joined, 0, kj.fromCol, 1, kj.rows, kj.col, buildTuples, shared)
	return len(out[1])
}

func (kj *kernelJoin) run(scr *execScratch, buildTuples bool) int {
	return kj.runShared(scr, buildTuples, nil)
}

// allRows lists every row of a column.
func allRows(col column.Reader) []int32 {
	rows := make([]int32, col.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// fuzzJoinValue is the v-th key of a fuzzed join column's domain. wide
// spreads int64 keys over the whole range, negatives and extremes included.
func fuzzJoinValue(kind column.Kind, v int, wide bool) column.Value {
	switch kind {
	case column.Int64:
		if wide {
			return column.IntV(int64(uint64(v) * 0x9e3779b97f4a7c15))
		}
		return column.IntV(int64(v) - 8)
	case column.Float64:
		return column.FloatV(float64(v)/4 - 2)
	}
	return column.StrV(fmt.Sprintf("k%02d", v))
}

// FuzzJoinKernel: the kernel's output — (input tuple, row) pairs, in order —
// equals a nested loop over the same columns, for both build orientations,
// main or delta stores of every kind, dictionaries of 0, 1 or many values
// with duplicate rows, and key ranges that overlap or are disjoint. A
// shared store-side build probes identically, also after the build's
// delta dictionary has grown.
//
// layout: [0] kind, wide ints, which sides are main; [1], [2] dictionary
// size of the tuple and the store column; [3], [4] their domain offsets.
// data: one value byte per column row, then a tuple-row byte and a
// candidate-row bit per byte.
func FuzzJoinKernel(f *testing.F) {
	f.Add([]byte{0x00, 5, 7, 0, 3}, []byte("duplicated int keys over overlapping ranges"))
	f.Fuzz(func(t *testing.T, layout, data []byte) {
		if len(layout) < 5 {
			return
		}
		kind := column.Kind(layout[0] % 3)
		wide := layout[0]&0x04 != 0
		dFrom, dCol := int(layout[1]%24), int(layout[2]%24)
		offFrom, offCol := int(layout[3]%32), int(layout[4]%32)
		half := len(data) / 2
		gen := func(main bool, d, off int, vals []byte) column.Reader {
			if d == 0 {
				vals = nil // an empty dictionary is an empty column
			}
			if main {
				b := column.NewMainBuilder(kind)
				for _, v := range vals {
					b.Append(fuzzJoinValue(kind, off+int(v)%d, wide))
				}
				return b.Build()
			}
			c := column.NewDelta(kind)
			for _, v := range vals {
				c.Append(fuzzJoinValue(kind, off+int(v)%d, wide))
			}
			return c
		}
		fromCol := gen(layout[0]&0x08 != 0, dFrom, offFrom, data[:half/2])
		col := gen(layout[0]&0x10 != 0, dCol, offCol, data[half/2:half])
		var tuples, rows []int32
		for i, b := range data[half:] {
			if fromCol.Len() > 0 {
				tuples = append(tuples, int32(int(b)%fromCol.Len()))
			}
			if i < col.Len() && b&1 != 0 {
				rows = append(rows, int32(i))
			}
		}

		kj := newKernelJoin(fromCol, tuples, col, rows)
		scr := new(execScratch)
		for _, buildTuples := range []bool{false, true} {
			// The reference emits in probe order: tuple-major when the
			// build is the store side, candidate-row-major otherwise.
			var want [][2]int32
			for ti, tr := range tuples {
				for _, r := range rows {
					if fromCol.Value(int(tr)) == col.Value(int(r)) {
						want = append(want, [2]int32{int32(ti), r})
					}
				}
			}
			if buildTuples {
				slices.SortStableFunc(want, func(a, b [2]int32) int { return int(a[1]) - int(b[1]) })
			}
			check := func(what string, n int) {
				t.Helper()
				got := make([][2]int32, n)
				for i := range got {
					got[i] = [2]int32{scr.tupleIdx[i], scr.stageCols[0][1][i]}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s (build-tuples=%v): kernel %v, nested loop %v", what, buildTuples, got, want)
				}
			}
			check("private build", kj.run(scr, buildTuples))
			if !buildTuples {
				shared := NewBuildTable(col, rows)
				if app, ok := col.(column.Appender); ok && len(rows) > 0 {
					app.Append(fuzzJoinValue(kind, offCol+dCol+1, wide)) // a new ID past the build's
				}
				check("shared build", kj.runShared(scr, false, shared))
			}
		}
	})
}
