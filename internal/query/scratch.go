package query

import (
	"math/bits"
	"sync"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/table"
	"aggcache/internal/txn"
	"aggcache/internal/vec"
)

// execScratch holds every reusable buffer one subjoin execution needs: the
// visibility bitset of the scan kernel, per-table candidate-row buffers, the
// hash-join arena, double-buffered tuple columns, and the flat accumulator
// arrays of the fast aggregation path. Workers check one out of scratchPool
// per batch, so steady-state subjoin execution allocates only the per-job
// result table.
//
// The recycler's reuse paths stay inside this discipline: an exact recycled
// hit merges the cached partial without touching scratch at all, a top-up
// term enters through the same restrict branch of scanStore (CopyFrom into
// the pooled bitset), and probing a shared BuildTable still gathers probe
// keys into probeKeys while leaving buildKeys and ht untouched for the next
// local build. The join plan itself lives in scratch slices too, so ordering
// a subjoin allocates nothing.
type execScratch struct {
	vis vec.BitSet

	stores  []*table.Store
	rowBufs [][]int32 // per-table candidate rows, backing arrays recycled
	rowsPer [][]int32

	// Join plan (planJoin): every edge oriented Left→Right, which positions
	// are joined, the chosen steps, and the joined positions in step order.
	edges  []joinStep
	joined []bool
	steps  []joinStep
	order  []int

	buildKeys []int64 // gathered build-side join keys
	probeKeys []int64 // gathered probe-side join keys
	ht        joinTable
	tupleIdx  []int32 // input tuple index per join output tuple

	// Tuple columns, indexed by query table position, are double-buffered
	// by join-stage parity: stage s reads the output of stage s-1 (the other
	// parity) and writes its own, so a join chain of any length reuses two
	// fixed sets of buffers.
	stageCols [2][][]int32
	tupleRefs [2][][]int32

	keyColBuf []column.Reader
	keyPosBuf []int
	aggColBuf []column.Reader
	aggPosBuf []int

	// fastAggregate accumulators: group index, flat key/count/sum arrays,
	// per-tuple group ids, and gathered int64 key/value blocks.
	aggIdx    map[int64]int
	aggKeys   []int64
	aggCounts []int64
	aggSums   []float64 // stride len(q.Aggs)
	gids      []int32
	keyI64    []int64
	aggI64    []int64
	keyValBuf []column.Value
}

var scratchPool = sync.Pool{New: func() any { return new(execScratch) }}

func getScratch() *execScratch  { return scratchPool.Get().(*execScratch) }
func putScratch(s *execScratch) { scratchPool.Put(s) }

// ensureTables grows the per-table slices to hold at least n entries. The
// slices never shrink, so buffers survive across combos of different widths.
func (scr *execScratch) ensureTables(n int) {
	for len(scr.stores) < n {
		scr.stores = append(scr.stores, nil)
	}
	for len(scr.rowBufs) < n {
		scr.rowBufs = append(scr.rowBufs, nil)
	}
	for len(scr.rowsPer) < n {
		scr.rowsPer = append(scr.rowsPer, nil)
	}
}

// scanStore is the vectorized scan kernel: it lists the store's candidate
// rows for a subjoin into dst (reused) and reports how many rows were
// inspected, split by evaluation path.
//
// Visibility is rendered word-at-a-time into the scratch bitset (or copied
// truncated from the explicit restrict set — Count of the truncated copy is
// the inspected-row count, so bits past the store's row count never inflate
// RowsScanned). When the bound predicate supports word-at-a-time evaluation
// the filter runs 64 rows per step directly on the visibility words;
// otherwise each visible row is tested one at a time.
func (scr *execScratch) scanStore(st *table.Store, snap txn.Snapshot, set *vec.BitSet, bound expr.Bound, dst []int32) (rows []int32, scanned, vecRows, scalarRows int64) {
	n := st.Rows()
	dst = dst[:0]
	if n == 0 {
		return dst, 0, 0, 0
	}
	vis := &scr.vis
	if set != nil {
		vis.CopyFrom(set, n)
		scanned = int64(vis.Count())
	} else {
		st.VisibilityInto(snap, vis)
		scanned = int64(n)
	}
	nw := vis.Words()
	if we, ok := bound.(expr.WordEvaler); ok {
		for wi := 0; wi < nw; wi++ {
			w := vis.Word(wi)
			if w == 0 {
				continue
			}
			vis.SetWord(wi, we.EvalWord(wi*64, w))
		}
		return vis.AppendSetBits(dst), scanned, scanned, 0
	}
	for wi := 0; wi < nw; wi++ {
		w := vis.Word(wi)
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			if bound.Eval(i) {
				dst = append(dst, int32(i))
			}
		}
	}
	return dst, scanned, 0, scanned
}

// gatherInt64 materializes the int64 values of the given rows into dst
// (resized, reused), taking the column's bulk-gather fast path when it has
// one.
func gatherInt64(col column.Reader, rowIDs []int32, dst []int64) []int64 {
	if cap(dst) < len(rowIDs) {
		dst = make([]int64, len(rowIDs))
	} else {
		dst = dst[:len(rowIDs)]
	}
	if g, ok := col.(column.Int64Gatherer); ok {
		g.Int64Gather(rowIDs, dst)
		return dst
	}
	for i, r := range rowIDs {
		dst[i] = col.Int64(int(r))
	}
	return dst
}

// fastAggregate is the vectorized path for the dominant aggregate shape: a
// single int64 grouping column with self-maintainable numeric aggregates.
// Group keys are gathered in one block, tuples are assigned dense group ids
// in a first pass, and each aggregate column is then accumulated
// column-at-a-time into flat arrays — all scratch-backed, so the steady
// state allocates nothing. It reports whether it applied.
func (scr *execScratch) fastAggregate(q *Query, tupleCols [][]int32, keyCols []column.Reader, keyPos []int, aggCols []column.Reader, aggPos []int, out *AggTable) bool {
	if len(keyCols) != 1 || keyCols[0].Kind() != column.Int64 {
		return false
	}
	for i, a := range q.Aggs {
		if !a.Func.SelfMaintainable() {
			return false
		}
		if aggCols[i] != nil && aggCols[i].Kind() == column.String {
			return false
		}
	}
	nAggs := len(q.Aggs)
	if scr.aggIdx == nil {
		scr.aggIdx = make(map[int64]int, 16)
	} else {
		clear(scr.aggIdx)
	}
	idx := scr.aggIdx
	keys := scr.aggKeys[:0]
	counts := scr.aggCounts[:0]
	sums := scr.aggSums[:0]
	gids := scr.gids[:0]

	scr.keyI64 = gatherInt64(keyCols[0], tupleCols[keyPos[0]], scr.keyI64)
	for _, k := range scr.keyI64 {
		g, ok := idx[k]
		if !ok {
			g = len(keys)
			idx[k] = g
			keys = append(keys, k)
			counts = append(counts, 0)
			for z := 0; z < nAggs; z++ {
				sums = append(sums, 0)
			}
		}
		counts[g]++
		gids = append(gids, int32(g))
	}
	for i := 0; i < nAggs; i++ {
		c := aggCols[i]
		if c == nil || q.Aggs[i].Func == Count {
			for _, g := range gids {
				sums[int(g)*nAggs+i]++
			}
			continue
		}
		rowIDs := tupleCols[aggPos[i]]
		if c.Kind() == column.Int64 {
			scr.aggI64 = gatherInt64(c, rowIDs, scr.aggI64)
			for ti, g := range gids {
				sums[int(g)*nAggs+i] += float64(scr.aggI64[ti])
			}
		} else {
			for ti, g := range gids {
				sums[int(g)*nAggs+i] += c.Value(int(rowIDs[ti])).F
			}
		}
	}
	if cap(scr.keyValBuf) < 1 {
		scr.keyValBuf = make([]column.Value, 1)
	}
	kb := scr.keyValBuf[:1]
	for g, k := range keys {
		kb[0] = column.IntV(k)
		out.AddGroup(kb, sums[g*nAggs:(g+1)*nAggs], counts[g])
	}
	scr.aggKeys, scr.aggCounts, scr.aggSums, scr.gids = keys, counts, sums, gids
	return true
}
