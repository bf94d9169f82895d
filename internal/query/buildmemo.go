package query

import (
	"slices"
	"sync"

	"aggcache/internal/column"
	"aggcache/internal/table"
)

// BuildTable is an immutable store-side build of the join kernel — a CSR
// over the build column's value IDs — shareable across subjoin jobs and,
// through a BuildSource, across queries. It serves every key kind and is a
// pure function of (col, rows), so a shared table probes identically to a
// privately built one.
type BuildTable struct {
	csr  joinCSR
	rows []int32
}

// NewBuildTable builds an immutable table over the given candidate rows of
// col. rows is copied; the caller may reuse its backing array.
func NewBuildTable(col column.Reader, rows []int32) *BuildTable {
	bt := &BuildTable{rows: slices.Clone(rows)}
	bt.csr.build(gatherIDs(col, rows, nil))
	return bt
}

// Rows returns the candidate rows the table indexes, in scan order. Callers
// use it to check validity: a cached table is reusable for a store iff a
// fresh scan would produce exactly these rows (column values at fixed rows
// are immutable, so equal rows imply equal value IDs). Read-only.
func (b *BuildTable) Rows() []int32 { return b.rows }

// MemBytes estimates the table's heap footprint for cache accounting.
func (b *BuildTable) MemBytes() uint64 {
	return uint64(cap(b.csr.offs)+cap(b.csr.ents)+cap(b.rows)) * 4
}

// BuildSource is a cross-query cache of build tables (implemented by
// internal/recycler). AcquireBuild returns a table valid for exactly the
// given candidate rows of store — serving a cached one when its row set
// matches, building and admitting a fresh one otherwise. Implementations
// must not retain rows (NewBuildTable copies it).
type BuildSource interface {
	AcquireBuild(qfp string, edge int, ref StoreRef, store *table.Store, col column.Reader, rows []int32) *BuildTable
}

// buildMemo shares store-side builds among the jobs of one ExecuteJobs
// batch: every combo of the 2^t union that joins through the same physical
// store on the same edge reuses one table instead of rebuilding it per
// combo. The memo is valid for jobs whose candidate rows for the build
// store are the batch-common ones (no Restrict, no pushdown filter on the
// build table) — executeCombo gates per edge. On local miss the memo
// delegates to the executor's cross-query BuildSource when one is set.
type buildMemo struct {
	mu  sync.Mutex
	m   map[buildMemoKey]*buildMemoEntry
	src BuildSource
	qfp string
}

// buildMemoKey identifies one build side within a batch: the physical store
// and the join edge (which fixes the build column). Keying by store pointer
// means main/delta/delta2 sides and different partitions never collide.
type buildMemoKey struct {
	store *table.Store
	edge  int
}

type buildMemoEntry struct {
	once sync.Once
	bt   *BuildTable
}

func newBuildMemo(q *Query, src BuildSource) *buildMemo {
	return &buildMemo{m: make(map[buildMemoKey]*buildMemoEntry), src: src, qfp: q.Fingerprint()}
}

// acquire returns the batch's shared table for (store, edge), building it
// exactly once. Concurrent jobs block on the builder through the entry's
// sync.Once; every job in the batch computes the same candidate rows for
// the store (same snapshot, same local filters), so whichever job builds
// first produces the table all of them need.
func (bm *buildMemo) acquire(edge int, ref StoreRef, store *table.Store, col column.Reader, rows []int32) *BuildTable {
	k := buildMemoKey{store: store, edge: edge}
	bm.mu.Lock()
	e := bm.m[k]
	if e == nil {
		e = &buildMemoEntry{}
		bm.m[k] = e
	}
	bm.mu.Unlock()
	e.once.Do(func() {
		if bm.src != nil {
			e.bt = bm.src.AcquireBuild(bm.qfp, edge, ref, store, col, rows)
		} else {
			e.bt = NewBuildTable(col, rows)
		}
	})
	return e.bt
}
