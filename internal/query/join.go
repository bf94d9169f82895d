package query

import (
	"fmt"

	"aggcache/internal/column"
	"aggcache/internal/table"
)

// joinCSR is the build side of the join kernel: the build input's positions
// grouped by the build column's dictionary value ID, as compressed sparse
// rows. For lo <= b < lo+span, ents[offs[b-lo]:offs[b-lo+1]] lists the
// positions whose row carries value ID b, ascending. lo is the smallest ID
// present and span reaches the largest, so offs covers the IDs the input
// holds, not the whole dictionary. Positions ascend within an ID, so matches
// emit in build-input order, and the CSR is a pure function of the IDs.
type joinCSR struct {
	lo   uint32
	offs []int32 // span+1 entries
	ents []int32
}

// span is the number of IDs offs covers.
func (t *joinCSR) span() uint32 { return uint32(len(t.offs) - 1) }

// build groups the positions of ids by ID, reusing the CSR's arrays. It is
// a counting sort: ID b is counted at offs[b-lo+2]; after the prefix sum
// offs[b-lo+1] is b's first slot and serves as its fill cursor, which leaves
// it at b's end — the start of b+1 — so offs[b-lo] ends up at b's start.
func (t *joinCSR) build(ids []uint32) {
	lo, hi := ^uint32(0), uint32(0)
	for _, id := range ids {
		lo, hi = min(lo, id), max(hi, id)
	}
	span := 0
	if len(ids) > 0 {
		span = int(hi-lo) + 1
	} else {
		lo = 0
	}
	offs := grow(t.offs, span+2)
	clear(offs)
	for _, id := range ids {
		offs[id-lo+2]++
	}
	for s := 2; s < len(offs); s++ {
		offs[s] += offs[s-1]
	}
	ents := grow(t.ents, len(ids))
	for i, id := range ids {
		c := &offs[id-lo+1]
		ents[*c] = int32(i)
		*c++
	}
	t.lo, t.offs, t.ents = lo, offs[:span+1], ents
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

// join extends the tuple set with the table at position pos (candidate
// rows rows, join column col) through the joined table at position from
// (join column fromCol). tupleCols is indexed by query table position;
// joined lists the positions it holds. The two columns must be of one kind.
//
// The build side is the smaller one: the new table's candidate rows, probed
// by the tuples' join keys (buildTuples false), or the tuples' join keys,
// probed by the new table's rows (buildTuples true) — then a large main
// store's column streams past a small, cache-resident build. Both sides work
// on dictionary value IDs and no key is decoded or hashed: the build is a CSR
// over the build column's IDs, and each probe ID is translated into the
// build dictionary's ID space (see translate), so a probe row without a
// partner costs one bit-unpack and one load. The kernel records, per output
// tuple, the input tuple index and the new table's row, and the joined
// columns are then gathered column-at-a-time at those indices. Output
// columns live in the scratch's stage buffers, double-buffered by stage
// parity.
//
// shared, when non-nil, is a prebuilt store-side CSR over exactly rows (the
// batch build memo / recycler), probed read-only instead of building one.
// The CSR is a pure function of (col, rows), so a shared build emits tuples
// in the same order a private one would — results stay byte-identical.
func (scr *execScratch) join(stage int, tupleCols [][]int32, joined []int, from int, fromCol column.Reader, pos int, rows []int32, col column.Reader, buildTuples bool, shared *BuildTable) [][]int32 {
	p := stage & 1
	for len(scr.stageCols[p]) < len(tupleCols) {
		scr.stageCols[p] = append(scr.stageCols[p], nil)
	}
	idx := scr.tupleIdx[:0]              // input tuple per output tuple
	matched := scr.stageCols[p][pos][:0] // new table's row per output tuple
	tuples := tupleCols[from]

	buildCol, buildRows, probeCol, probeRows := col, rows, fromCol, tuples
	if buildTuples {
		buildCol, buildRows, probeCol, probeRows = fromCol, tuples, col, rows
	}
	csr := &scr.csr
	if shared != nil {
		csr, buildRows = &shared.csr, shared.rows
	} else {
		scr.buildIDs = gatherIDs(buildCol, buildRows, scr.buildIDs)
		csr.build(scr.buildIDs)
	}
	scr.probeIDs = gatherIDs(probeCol, probeRows, scr.probeIDs)
	xl, plo := scr.translate(probeCol, buildCol, csr, scr.probeIDs)
	base, span, offs, ents := csr.lo+1, csr.span(), csr.offs, csr.ents
	if buildTuples {
		for i, pid := range scr.probeIDs {
			if b := uint32(xl[pid-plo]) - base; b < span {
				for _, e := range ents[offs[b]:offs[b+1]] {
					idx = append(idx, e)
					matched = append(matched, rows[i])
				}
			}
		}
	} else {
		for i, pid := range scr.probeIDs {
			if b := uint32(xl[pid-plo]) - base; b < span {
				for _, e := range ents[offs[b]:offs[b+1]] {
					idx = append(idx, int32(i))
					matched = append(matched, buildRows[e])
				}
			}
		}
	}

	out := scr.tupleRefs[p][:0]
	for range tupleCols {
		out = append(out, nil)
	}
	for _, c := range joined {
		src := tupleCols[c]
		dst := grow(scr.stageCols[p][c], len(idx))
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

// translate maps the probe value IDs pids into the build column's ID
// space: xl[p-plo] is 1 + the build ID of the probe dictionary's p-th value,
// 0 when the build dictionary lacks it. The probe loop subtracts lo+1 and
// keeps results below the CSR's span, so an absent value and a build ID the
// CSR does not hold are dropped by one unsigned compare.
//
// The whole-dictionary translation is cached on the column with the smaller
// dictionary (column.Translation), so no cached vector is sized by a large
// main's dictionary for the sake of a small delta. When that is the probe
// column, xl is its cached vector (plo 0). Otherwise the build column's
// cached translation into the probe dictionary is scattered, one entry per
// build ID the CSR holds, into a scratch window over the probe IDs' range.
func (scr *execScratch) translate(probe, build column.Reader, t *joinCSR, pids []uint32) (xl []int32, plo uint32) {
	if probe.DictLen() <= build.DictLen() {
		return column.Translation(probe, build), 0
	}
	if len(pids) == 0 {
		return nil, 0
	}
	plo, phi := pids[0], pids[0]
	for _, p := range pids[1:] {
		plo, phi = min(plo, p), max(phi, p)
	}
	rev := column.Translation(build, probe)
	xl = grow(scr.xl, int(phi-plo)+1)
	clear(xl)
	for s := range t.span() {
		if t.offs[s] == t.offs[s+1] {
			continue
		}
		b := t.lo + s
		if p := uint32(rev[b]) - 1 - plo; p < uint32(len(xl)) {
			xl[p] = int32(b) + 1
		}
	}
	scr.xl = xl
	return xl, plo
}
