package table

import (
	"fmt"
	"sync/atomic"

	"aggcache/internal/column"
	"aggcache/internal/txn"
)

// RowRef locates a row version inside a table. D2 marks rows that were
// appended to the write-coalescing delta2 while an online merge was running
// on the partition; the merge swap (or abort) rewrites such refs.
type RowRef struct {
	Part   int
	InMain bool
	D2     bool
	Row    int
}

// Table is a columnar table with one or more main-delta partitions.
type Table struct {
	schema Schema
	parts  []*Partition
	// routeCol is the column index partition routing is based on, -1 for
	// single-partition tables.
	routeCol int
	// pk is the primary-key column index, -1 when the table has none. Each
	// store indexes its own keys (see LookupPK).
	pk int
	// pendingSplit, when non-nil, is the hot/cold boundary an in-flight
	// online aging is moving the table to; inserts route against it so
	// delta2 rows land in their post-swap partition.
	pendingSplit *int64
	// faults is the database's fault-injection hook set (nil in
	// production); Insert consults the WriterAppend point.
	faults *Faults
	// lastWrite is the highest transaction ID that appended, invalidated
	// or bulk-loaded a row (see LastWrite).
	lastWrite atomic.Uint64
}

// New creates a single-partition table.
func New(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{schema: schema, routeCol: -1, pk: schema.pkCol()}
	t.parts = []*Partition{{Name: "", Main: emptyMainStore(&t.schema), Delta: newDeltaStore(&t.schema)}}
	return t, nil
}

// RangePartition declares one range of a partitioned table.
type RangePartition struct {
	Name   string
	Lo, Hi int64 // [Lo, Hi) on the routing column
}

// NewPartitioned creates a table range-partitioned on an Int64 column —
// the layout of the hot/cold aging scenario. Ranges must not overlap and
// must cover every value that will be inserted.
func NewPartitioned(schema Schema, routeCol string, ranges []RangePartition) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	ci := schema.ColIndex(routeCol)
	if ci < 0 {
		return nil, fmt.Errorf("table %s: routing column %s is not a column", schema.Name, routeCol)
	}
	if schema.Cols[ci].Kind != column.Int64 {
		return nil, fmt.Errorf("table %s: routing column %s must be int64", schema.Name, routeCol)
	}
	if len(ranges) == 0 {
		return nil, fmt.Errorf("table %s: no partition ranges", schema.Name)
	}
	t := &Table{schema: schema, routeCol: ci, pk: schema.pkCol()}
	for _, r := range ranges {
		if r.Hi <= r.Lo {
			return nil, fmt.Errorf("table %s: empty partition range %s [%d,%d)", schema.Name, r.Name, r.Lo, r.Hi)
		}
		t.parts = append(t.parts, &Partition{
			Name: r.Name, Lo: r.Lo, Hi: r.Hi,
			Main: emptyMainStore(&t.schema), Delta: newDeltaStore(&t.schema),
		})
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return &t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Partitions lists the table's partitions.
func (t *Table) Partitions() []*Partition { return t.parts }

// Partition returns partition i.
func (t *Table) Partition(i int) *Partition { return t.parts[i] }

// MergeActive reports whether any partition of the table has an online
// merge in flight. Callers may hold either side of the database lock;
// merge state only changes under the writer lock.
func (t *Table) MergeActive() bool {
	for _, p := range t.parts {
		if p.merge != nil {
			return true
		}
	}
	return false
}

// LastWrite returns the highest transaction ID that appended, invalidated
// or bulk-loaded a row of the table. A read snapshot's visible rows can
// change only through a transaction with a higher ID, so a result computed
// at watermark h stays exact for every later read snapshot while
// LastWrite() <= h. An abort leaves it raised, which is conservative.
func (t *Table) LastWrite() txn.TID { return txn.TID(t.lastWrite.Load()) }

// wrote raises LastWrite to id. Writers normally hold the database lock;
// the compare-and-swap keeps the maximum under any interleaving.
func (t *Table) wrote(id txn.TID) {
	for {
		cur := t.lastWrite.Load()
		if uint64(id) <= cur || t.lastWrite.CompareAndSwap(cur, uint64(id)) {
			return
		}
	}
}

// routeFor picks the partition an inserted row belongs to. While an online
// aging is in flight the pending boundary wins, so new rows land in the
// partition they will belong to after the swap.
func (t *Table) routeFor(vals []column.Value) (int, error) {
	if t.routeCol < 0 {
		return 0, nil
	}
	v := vals[t.routeCol]
	if s := t.pendingSplit; s != nil {
		if v.I >= t.parts[0].Lo && v.I < *s {
			return 0, nil
		}
		if v.I >= *s && v.I < t.parts[1].Hi {
			return 1, nil
		}
		return 0, fmt.Errorf("table %s: value %d outside every partition range", t.schema.Name, v.I)
	}
	for i, p := range t.parts {
		if v.I >= p.Lo && v.I < p.Hi {
			return i, nil
		}
	}
	return 0, fmt.Errorf("table %s: value %d outside every partition range", t.schema.Name, v.I)
}

// Insert appends a row (ordered per schema) to the routed partition's
// delta store. The write becomes visible when tx commits; aborting tx
// tombstones the row.
func (t *Table) Insert(tx *txn.Txn, vals []column.Value) (RowRef, error) {
	if len(vals) != len(t.schema.Cols) {
		return RowRef{}, fmt.Errorf("table %s: %d values for %d columns", t.schema.Name, len(vals), len(t.schema.Cols))
	}
	for i, v := range vals {
		if v.K != t.schema.Cols[i].Kind {
			return RowRef{}, fmt.Errorf("table %s: column %s expects %v, got %v",
				t.schema.Name, t.schema.Cols[i].Name, t.schema.Cols[i].Kind, v.K)
		}
	}
	pi, err := t.routeFor(vals)
	if err != nil {
		return RowRef{}, err
	}
	if err := t.faults.At(FaultWriterAppend); err != nil {
		return RowRef{}, err
	}
	var pk int64
	if t.pk >= 0 {
		pk = vals[t.pk].I
		if _, dup := t.LookupPK(pk); dup {
			return RowRef{}, fmt.Errorf("table %s: duplicate primary key %d", t.schema.Name, pk)
		}
	}
	p := t.parts[pi]
	st, d2 := p.Delta, false
	if p.merge != nil {
		// An online merge froze the delta; new rows coalesce in delta2.
		st, d2 = p.Delta2, true
	}
	t.wrote(tx.ID())
	row := st.appendRow(vals, tx.ID())
	prev, hadPrev := st.keys[pk]
	if st.keys != nil {
		st.keys[pk] = int32(row)
	}
	tx.OnAbort(func() {
		st.create[row] = txn.Aborted
		// Give the key back to the store's previous row of it, which an
		// aborted update of that row made live again.
		if cur, ok := st.keys[pk]; ok && cur == int32(row) {
			if hadPrev {
				st.keys[pk] = prev
			} else {
				delete(st.keys, pk)
			}
		}
	})
	return RowRef{Part: pi, InMain: false, D2: d2, Row: row}, nil
}

// LookupPK returns the live row version of a primary key: the first
// version live by its own timestamps, walking each partition's delta2,
// delta and main (newest store first).
func (t *Table) LookupPK(pk int64) (RowRef, bool) {
	if t.pk < 0 {
		return RowRef{}, false
	}
	for pi, p := range t.parts {
		if p.Delta2 != nil {
			if row, ok := p.Delta2.lookupPK(t.pk, pk); ok {
				return RowRef{Part: pi, D2: true, Row: row}, true
			}
		}
		if row, ok := p.Delta.lookupPK(t.pk, pk); ok {
			return RowRef{Part: pi, Row: row}, true
		}
		if row, ok := p.Main.lookupPK(t.pk, pk); ok {
			return RowRef{Part: pi, InMain: true, Row: row}, true
		}
	}
	return RowRef{}, false
}

// Get reads one column of a row version.
func (t *Table) Get(ref RowRef, col int) column.Value {
	return t.store(ref).Col(col).Value(ref.Row)
}

func (t *Table) store(ref RowRef) *Store {
	p := t.parts[ref.Part]
	if ref.InMain {
		return p.Main
	}
	if ref.D2 && p.Delta2 != nil {
		return p.Delta2
	}
	// A D2 ref after the swap resolves to the delta: the swap promoted the
	// delta2 store (same pointer, same row numbering) to be the new delta.
	return p.Delta
}

// Update invalidates the current version of pk and inserts a new version
// with the given columns replaced, following the insert-only update protocol
// of the main-delta architecture: the old record — possibly in main — is
// invalidated, the new one lands in the delta store.
func (t *Table) Update(tx *txn.Txn, pk int64, set map[string]column.Value) error {
	if t.pk < 0 {
		return fmt.Errorf("table %s: update requires a primary key", t.schema.Name)
	}
	ref, ok := t.LookupPK(pk)
	if !ok {
		return fmt.Errorf("table %s: update of missing primary key %d", t.schema.Name, pk)
	}
	old := t.store(ref)
	vals := old.Row(ref.Row)
	for name, v := range set {
		ci := t.schema.ColIndex(name)
		if ci < 0 {
			return fmt.Errorf("table %s: update of unknown column %s", t.schema.Name, name)
		}
		if v.K != t.schema.Cols[ci].Kind {
			return fmt.Errorf("table %s: column %s expects %v, got %v", t.schema.Name, name, t.schema.Cols[ci].Kind, v.K)
		}
		vals[ci] = v
	}
	if err := t.invalidate(tx, ref); err != nil {
		return err
	}
	// The invalidated version no longer answers pk, so the new one is not
	// a duplicate.
	_, err := t.Insert(tx, vals)
	return err
}

// Delete invalidates the current version of pk.
func (t *Table) Delete(tx *txn.Txn, pk int64) error {
	if t.pk < 0 {
		return fmt.Errorf("table %s: delete requires a primary key", t.schema.Name)
	}
	ref, ok := t.LookupPK(pk)
	if !ok {
		return fmt.Errorf("table %s: delete of missing primary key %d", t.schema.Name, pk)
	}
	return t.invalidate(tx, ref)
}

// invalidate stamps the row's invalidating transaction. Writes go through
// txn.StoreTID because an online merge builder may be scanning the frozen
// store's MVCC arrays without the database lock; when the target row
// belongs to a frozen store of a merge-active partition the mutation is
// also logged so the swap can copy the final timestamp into the new main.
func (t *Table) invalidate(tx *txn.Txn, ref RowRef) error {
	st := t.store(ref)
	if txn.LoadTID(&st.invalid[ref.Row]) != 0 {
		return fmt.Errorf("table %s: row already invalidated", t.schema.Name)
	}
	t.wrote(tx.ID())
	txn.StoreTID(&st.invalid[ref.Row], tx.ID())
	atomic.AddUint64(&st.invalidations, 1)
	if p := t.parts[ref.Part]; p.merge != nil && !ref.D2 {
		p.merge.invLog = append(p.merge.invLog, invRec{inMain: ref.InMain, row: ref.Row})
	}
	tx.OnAbort(func() { txn.StoreTID(&st.invalid[ref.Row], 0) })
	return nil
}

// BulkLoadMain loads rows directly into a partition's main store with the
// given creating transaction IDs, replacing its current main. It is the
// fast path data generators use to stand up large mains without paying the
// insert-then-merge cost. The partition's delta must be empty.
func (t *Table) BulkLoadMain(part int, rows [][]column.Value, tids []txn.TID) error {
	if len(rows) != len(tids) {
		return fmt.Errorf("table %s: %d rows but %d tids", t.schema.Name, len(rows), len(tids))
	}
	p := t.parts[part]
	if p.Delta.Rows() != 0 || p.Main.Rows() != 0 {
		return fmt.Errorf("table %s: bulk load into non-empty partition %q", t.schema.Name, p.Name)
	}
	builders := newMainBuilders(&t.schema, len(rows))
	for _, r := range rows {
		if len(r) != len(t.schema.Cols) {
			return fmt.Errorf("table %s: bulk row with %d values for %d columns", t.schema.Name, len(r), len(t.schema.Cols))
		}
		for i, v := range r {
			builders[i].Append(v)
		}
	}
	p.Main = newMainStore(&t.schema, builders, append([]txn.TID(nil), tids...), make([]txn.TID, len(tids)))
	for _, id := range tids {
		if id != txn.Aborted {
			t.wrote(id)
		}
	}
	return nil
}

// MemBytes estimates the table's heap footprint across all partitions.
func (t *Table) MemBytes() uint64 {
	var m uint64
	for _, p := range t.parts {
		for _, st := range p.Stores() {
			m += st.MemBytes()
		}
	}
	return m
}

// DeltaRows reports the total physical delta row count across partitions.
func (t *Table) DeltaRows() int {
	n := 0
	for _, p := range t.parts {
		n += p.Delta.Rows()
	}
	return n
}
