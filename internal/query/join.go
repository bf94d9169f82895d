package query

import (
	"fmt"

	"aggcache/internal/column"
	"aggcache/internal/table"
)

// hashKey is the 64-bit mix (splitmix64 finalizer) applied to join keys
// before bucketing. Sequential keys — the common case for surrogate primary
// keys and tids — would otherwise pile into adjacent buckets.
func hashKey(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// joinTable is the int64 hash-join build side: a bucket-chained table over
// flat arrays instead of a map[int64][]int32, so building allocates nothing
// in the steady state and probing touches two cache lines per entry. Bucket
// count is the smallest power of two >= 2x the build size; heads and next
// hold 1-based entry indices (0 = empty/end). Entry e-1 is the (e-1)-th
// build input, so a probe learns both the matching row and its position in
// the build input.
//
// Entries are inserted in reverse row order with head insertion, so walking
// a chain yields build rows in ascending order — matches emit in the same
// deterministic order as the append-based map build it replaces.
type joinTable struct {
	heads []int32
	next  []int32
	keys  []int64
	rows  []int32
	mask  uint64
}

// build indexes the build-side rows by their gathered keys, reusing the
// table's arrays.
func (t *joinTable) build(keys []int64, rowIDs []int32) {
	n := len(rowIDs)
	bcap := 8
	for bcap < 2*n {
		bcap <<= 1
	}
	if cap(t.heads) < bcap {
		t.heads = make([]int32, bcap)
	} else {
		t.heads = t.heads[:bcap]
		clear(t.heads)
	}
	if cap(t.next) < n {
		t.next = make([]int32, n)
	} else {
		t.next = t.next[:n]
	}
	if cap(t.keys) < n {
		t.keys = make([]int64, n)
	} else {
		t.keys = t.keys[:n]
	}
	if cap(t.rows) < n {
		t.rows = make([]int32, n)
	} else {
		t.rows = t.rows[:n]
	}
	t.mask = uint64(bcap - 1)
	for i := n - 1; i >= 0; i-- {
		k := keys[i]
		b := hashKey(uint64(k)) & t.mask
		t.keys[i] = k
		t.rows[i] = rowIDs[i]
		t.next[i] = t.heads[b]
		t.heads[b] = int32(i) + 1
	}
}

// joinStep attaches the table at query position pos to the tuple set through
// join edge edge, whose other endpoint is the already-joined table at
// position from: col is pos's join column, fromCol the joined side's.
type joinStep struct {
	edge      int
	pos, from int
	col       ColRef
	fromCol   ColRef
}

func (s joinStep) reversed() joinStep {
	return joinStep{edge: s.edge, pos: s.from, from: s.pos, col: s.fromCol, fromCol: s.col}
}

// planJoin orders one subjoin's tables from the candidate-row counts of the
// scan phase (scr.rowsPer), smallest input first. It starts on the edge
// whose join is estimated smallest, at that edge's endpoint with fewer
// candidates — in a compensation subjoin, the delta or a filtered dimension
// next to it — and then repeatedly attaches the join-tree neighbour with the
// fewest candidates. Ties go to the lower query table position.
//
// The edge estimate uses only the counts and key uniqueness: joining A to B
// through B's primary key, each A candidate finds at most one partner, which
// is a B candidate with probability n_B/N_B (N: rows of B's whole table, the
// domain the foreign key ranges over), so |A ⋈ B| ≈ n_A·n_B/N_B; with
// neither column a key, max(n_A, n_B). The fewest candidates alone can
// name a small table that filters nothing for its neighbour.
//
// The plan is a pure function of the counts, the schema and the query, so
// it is identical at every worker and shard count and independent of the
// order Tables and Joins were written in, up to ties. Returned slices are
// scratch-held.
func (scr *execScratch) planJoin(db *table.DB, q *Query) (start int, steps []joinStep, err error) {
	rows := scr.rowsPer[:len(q.Tables)]
	fewer := func(a, b int) bool { // a has fewer candidates than b, by the tie rule
		return len(rows[a]) < len(rows[b]) || len(rows[a]) == len(rows[b]) && a < b
	}
	edges := scr.edges[:0]
	best := -1.0
	for ei, e := range q.Joins {
		s := joinStep{edge: ei, pos: tablePos(q, e.Right.Table), from: tablePos(q, e.Left.Table), col: e.Right, fromCol: e.Left}
		if s.pos < 0 || s.from < 0 {
			return 0, nil, fmt.Errorf("query: join %s references a table outside the query", e)
		}
		edges = append(edges, s)
		nf, np := float64(len(rows[s.from])), float64(len(rows[s.pos]))
		est := max(nf, np)
		if t := db.MustTable(e.Right.Table); t.Schema().PK == e.Right.Col {
			est = nf * np / float64(tableRows(t))
		} else if t := db.MustTable(e.Left.Table); t.Schema().PK == e.Left.Col {
			est = nf * np / float64(tableRows(t))
		}
		first := s.from
		if fewer(s.pos, s.from) {
			first = s.pos
		}
		if best < 0 || est < best || est == best && fewer(first, start) {
			best, start = est, first
		}
	}
	joined := scr.joined[:0]
	for i := range rows {
		joined = append(joined, i == start)
	}
	steps = scr.steps[:0]
	for len(steps) < len(rows)-1 {
		next := joinStep{pos: -1}
		for _, s := range edges {
			if joined[s.pos] {
				s = s.reversed()
			}
			if joined[s.pos] || !joined[s.from] {
				continue
			}
			if next.pos < 0 || fewer(s.pos, next.pos) {
				next = s
			}
		}
		if next.pos < 0 {
			return 0, nil, fmt.Errorf("query: join graph over %v is not connected", q.Tables)
		}
		joined[next.pos] = true
		steps = append(steps, next)
	}
	scr.edges, scr.joined, scr.steps = edges, joined, steps
	return start, steps, nil
}

// tableRows counts the rows of every store of t.
func tableRows(t *table.Table) int {
	n := 0
	for _, p := range t.Partitions() {
		n += p.Main.Rows() + p.Delta.Rows()
		if p.Delta2 != nil {
			n += p.Delta2.Rows()
		}
	}
	return n
}

// hashJoin extends the tuple set with the table at position pos (candidate
// rows rows, join column col) through the joined table at position from
// (join column fromCol). tupleCols is indexed by query table position;
// joined lists the positions it holds.
//
// The hash table is built on the smaller side: over the new table's
// candidate rows, probed by the tuples' join keys (buildTuples false), or
// over the tuples' join keys, probed by the new table's rows (buildTuples
// true) — then a large main store's column streams past a small,
// cache-resident table. Either way the kernel records, per output tuple, the
// input tuple index and the new table's row, and the joined columns are then
// gathered column-at-a-time at those indices. Int64 keys take the flat
// joinTable kernel with bulk-gathered keys; other kinds fall back to a
// Value-keyed map. Output columns live in the scratch's stage buffers,
// double-buffered by stage parity.
//
// shared, when non-nil, is a prebuilt table over exactly rows (the batch
// build memo / recycler); the build step is skipped and the shared table is
// probed read-only. build is a pure function of (keys, rows) and chains walk
// in ascending row order, so probing a shared table emits tuples in the same
// order a private build would — results stay byte-identical. Only the int64
// store-side build may receive one (callers gate on column kinds).
func (scr *execScratch) hashJoin(stage int, tupleCols [][]int32, joined []int, from int, fromCol column.Reader, pos int, rows []int32, col column.Reader, buildTuples bool, shared *BuildTable) [][]int32 {
	p := stage & 1
	for len(scr.stageCols[p]) < len(tupleCols) {
		scr.stageCols[p] = append(scr.stageCols[p], nil)
	}
	idx := scr.tupleIdx[:0]              // input tuple per output tuple
	matched := scr.stageCols[p][pos][:0] // new table's row per output tuple
	tuples := tupleCols[from]

	if fromCol.Kind() == column.Int64 && col.Kind() == column.Int64 {
		ht := &scr.ht
		if buildTuples {
			scr.buildKeys = gatherInt64(fromCol, tuples, scr.buildKeys)
			scr.ht.build(scr.buildKeys, tuples)
			scr.probeKeys = gatherInt64(col, rows, scr.probeKeys)
			for j, k := range scr.probeKeys {
				for e := ht.heads[hashKey(uint64(k))&ht.mask]; e != 0; e = ht.next[e-1] {
					if ht.keys[e-1] == k {
						idx = append(idx, e-1)
						matched = append(matched, rows[j])
					}
				}
			}
		} else {
			if shared != nil {
				ht = &shared.jt
			} else {
				scr.buildKeys = gatherInt64(col, rows, scr.buildKeys)
				scr.ht.build(scr.buildKeys, rows)
			}
			scr.probeKeys = gatherInt64(fromCol, tuples, scr.probeKeys)
			for ti, k := range scr.probeKeys {
				for e := ht.heads[hashKey(uint64(k))&ht.mask]; e != 0; e = ht.next[e-1] {
					if ht.keys[e-1] == k {
						idx = append(idx, int32(ti))
						matched = append(matched, ht.rows[e-1])
					}
				}
			}
		}
	} else if buildTuples {
		ht := make(map[column.Value][]int32, len(tuples))
		for ti, r := range tuples {
			k := fromCol.Value(int(r))
			ht[k] = append(ht[k], int32(ti))
		}
		for _, r := range rows {
			for _, ti := range ht[col.Value(int(r))] {
				idx = append(idx, ti)
				matched = append(matched, r)
			}
		}
	} else {
		ht := make(map[column.Value][]int32, len(rows))
		for _, r := range rows {
			k := col.Value(int(r))
			ht[k] = append(ht[k], r)
		}
		for ti, r := range tuples {
			for _, m := range ht[fromCol.Value(int(r))] {
				idx = append(idx, int32(ti))
				matched = append(matched, m)
			}
		}
	}

	out := scr.tupleRefs[p][:0]
	for range tupleCols {
		out = append(out, nil)
	}
	for _, c := range joined {
		src := tupleCols[c]
		dst := scr.stageCols[p][c]
		if cap(dst) < len(idx) {
			dst = make([]int32, len(idx))
		} else {
			dst = dst[:len(idx)]
		}
		for i, ti := range idx {
			dst[i] = src[ti]
		}
		scr.stageCols[p][c] = dst
		out[c] = dst
	}
	scr.stageCols[p][pos] = matched
	out[pos] = matched
	scr.tupleIdx = idx
	scr.tupleRefs[p] = out
	return out
}
