package query

import (
	"sync"

	"aggcache/internal/column"
	"aggcache/internal/expr"
	"aggcache/internal/table"
	"aggcache/internal/txn"
	"aggcache/internal/vec"
)

// execScratch holds every reusable buffer one subjoin execution needs: the
// visibility bitset of the scan kernel, per-table candidate-row buffers, the
// join kernel's arrays, double-buffered tuple columns, and the group-by
// kernel's arrays. Workers check one out of scratchPool per batch, so
// steady-state subjoin execution allocates only the per-job result table.
//
// The recycler's reuse paths stay inside this discipline: an exact recycled
// hit merges the cached partial without touching scratch at all, a top-up
// term enters through the same restrict branch of scanStore (CopyFrom into
// the pooled bitset), and probing a shared BuildTable still gathers probe
// IDs into probeIDs while leaving buildIDs and csr untouched for the next
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

	buildIDs []uint32 // gathered build-side join value IDs
	probeIDs []uint32 // gathered probe-side join value IDs
	csr      joinCSR
	xl       []int32 // a per-join probe → build ID translation
	tupleIdx []int32 // input tuple index per join output tuple

	// Tuple columns, indexed by query table position, are double-buffered
	// by join-stage parity: stage s reads the output of stage s-1 (the other
	// parity) and writes its own, so a join chain of any length reuses two
	// fixed sets of buffers.
	stageCols [2][][]int32
	tupleRefs [2][][]int32

	// Aggregation phase: the key and aggregate columns with their per-tuple
	// rows, and the group-by kernel.
	keyCols []column.Reader
	keyRows [][]int32
	aggCols []column.Reader
	aggRows [][]int32
	gb      groupKernel
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

// scanStore is the scan kernel: it lists the store's candidate rows for a
// subjoin into dst (reused) and reports how many rows were inspected.
//
// Visibility is rendered word-at-a-time into the scratch bitset (or copied
// truncated from the explicit restrict set — Count of the truncated copy is
// the inspected-row count, so bits past the store's row count never inflate
// RowsScanned), and the filter then runs 64 rows per step directly on the
// visibility words.
func (scr *execScratch) scanStore(st *table.Store, snap txn.Snapshot, set *vec.BitSet, bound expr.Bound, dst []int32) (rows []int32, scanned int64) {
	n := st.Rows()
	dst = dst[:0]
	if n == 0 {
		return dst, 0
	}
	vis := &scr.vis
	if set != nil {
		vis.CopyFrom(set, n)
		scanned = int64(vis.Count())
	} else {
		st.VisibilityInto(snap, vis)
		scanned = int64(n)
	}
	for wi := 0; wi < vis.Words(); wi++ {
		if w := vis.Word(wi); w != 0 {
			vis.SetWord(wi, bound.EvalWord(wi*64, w))
		}
	}
	return vis.AppendSetBits(dst), scanned
}

// gatherIDs materializes the dictionary value IDs of the given rows into dst
// (resized, reused). Every column kind implements column.IDGatherer.
func gatherIDs(col column.Reader, rows []int32, dst []uint32) []uint32 {
	dst = grow(dst, len(rows))
	col.(column.IDGatherer).IDGather(rows, dst)
	return dst
}
