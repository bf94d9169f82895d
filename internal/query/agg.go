package query

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

	"aggcache/internal/column"
)

// AggTable is the extent of an aggregate query: the grouping combinations
// with their aggregate accumulators plus the per-group row count (COUNT(*)),
// which is always maintained because incremental view maintenance needs it
// to delete emptied groups and to finalize AVG (paper Fig. 2).
//
// AggTable supports positive deltas (Add/Merge — delta compensation) and
// negative deltas (MergeSigned/ApplySigned — main compensation of
// invalidated rows), provided all aggregates are self-maintainable.
//
// The body is struct-of-arrays, one slot per group and no heap object per
// group: slot s holds the key values keys[s*width:(s+1)*width], the row
// count counts[s], the accumulators sums[s*k:(s+1)*k] (k = len(specs)) and,
// only when a MIN/MAX spec exists, the extremes exts[s*k:(s+1)*k]. An
// open-addressed index maps a hash of the key values to the slot; a hash
// match is verified against the slot's stored keys. Inserting a group
// appends to the arrays; no read rebuilds the index.
//
// Copy-on-write: Clone copies nothing. It shares all five arrays — keys,
// counts, sums, exts and the index — and marks both tables twice: shared
// (keys and index) and sharedVals (counts, sums, exts). A shared table
// copies keys and index before it next writes them — inserting a group or
// being reset — and every writer of counts, sums or exts calls ownVals
// first, which copies those three once. So a cache entry mutated under the
// manager's lock never writes storage that a clone being compensated
// outside the lock still reads, nor the reverse, and a clone allocates only
// its header, whatever the group count.
//
// Removal tombstones: a group ApplySigned empties keeps its slot, keys and
// index cell, with counts[s] == tombstone. Tombstoned slots are skipped by
// every reader; a later fold of the same keys revives the slot from zero
// accumulators and first-value extremes, exactly like a new group.
type AggTable struct {
	specs  []AggSpec
	hasExt bool // a MIN/MAX spec exists, so exts is kept
	width  int  // key values per slot, fixed by the first group
	n      int  // slots, live and tombstoned
	live   int  // live slots: Groups()

	keys   []column.Value // shared copy-on-write
	counts []int64        // COUNT(*) per slot; tombstone marks a removed group
	sums   []float64      // per slot and spec: Sum/Avg sum, Count count
	exts   []column.Value // per slot and spec: Min/Max extreme (other specs zero)
	index  slotIndex      // shared copy-on-write

	// shared is set by Clone on both tables while keys and index may be
	// read by another table, sharedVals while counts, sums and exts may be.
	// They are atomic so concurrent clones of one table (each only reading
	// it otherwise) do not race on the flags.
	shared     atomic.Bool
	sharedVals atomic.Bool
}

// slotIndex is the open-addressed key index: a power-of-two number of
// cells, at most half of them used.
type slotIndex struct {
	hashes []uint64 // per cell: the key hash
	slots  []int32  // per cell: slot+1, 0 = empty
}

// tombstone is the count of a removed group's slot; no group reaches it.
const tombstone = math.MinInt64

// NewAggTable returns an empty aggregation table for the given outputs.
func NewAggTable(specs []AggSpec) *AggTable {
	a := &AggTable{}
	a.reset(specs)
	return a
}

// reset empties the table for specs. Its arrays are kept for reuse — the
// executor's pooled job partials — unless they are shared with a clone;
// then they are left to the clone, keys and index dropped and the value
// arrays replaced by fresh ones of the same capacity, so the refill does
// not regrow them. An index far larger than the last use needed is dropped
// as well, so clearing it costs at most a constant per group of that use.
func (a *AggTable) reset(specs []AggSpec) {
	a.specs = specs
	a.hasExt = false
	for _, s := range specs {
		a.hasExt = a.hasExt || s.Func == Min || s.Func == Max
	}
	used := a.n
	a.width, a.n, a.live = 0, 0, 0
	if a.sharedVals.Load() {
		a.counts = make([]int64, 0, cap(a.counts))
		a.sums = make([]float64, 0, cap(a.sums))
		a.exts = make([]column.Value, 0, cap(a.exts))
		a.sharedVals.Store(false)
	}
	a.counts, a.sums, a.exts = a.counts[:0], a.sums[:0], a.exts[:0]
	if a.shared.Load() || len(a.index.slots) > 8*max(used, 8) {
		a.keys, a.index = nil, slotIndex{}
		a.shared.Store(false)
		return
	}
	a.keys = a.keys[:0]
	clear(a.index.slots)
}

// Specs returns the aggregate output specifications.
func (a *AggTable) Specs() []AggSpec { return a.specs }

// Groups reports the number of grouping combinations.
func (a *AggTable) Groups() int { return a.live }

// EncodeGroupKey renders a canonical, collision-free string for a grouping
// combination; summary-table implementations index their group rows by it,
// and Rows orders groups by it.
func EncodeGroupKey(keys []column.Value) string { return encodeKey(keys) }

// appendKey renders a comparable group key into buf. Values are
// length-prefixed so adjacent strings cannot collide.
func appendKey(buf []byte, keys []column.Value) []byte {
	for _, k := range keys {
		switch k.K {
		case column.Int64:
			buf = append(buf, 'i')
			buf = strconv.AppendInt(buf, k.I, 36)
		case column.Float64:
			buf = append(buf, 'f')
			buf = strconv.AppendUint(buf, math.Float64bits(k.F), 36)
		case column.String:
			buf = append(buf, 's')
			buf = strconv.AppendInt(buf, int64(len(k.S)), 10)
			buf = append(buf, ':')
			buf = append(buf, k.S...)
		}
		buf = append(buf, '|')
	}
	return buf
}

func encodeKey(keys []column.Value) string { return string(appendKey(nil, keys)) }

// strSeed seeds the hash of string key values.
var strSeed = maphash.MakeSeed()

// hashGroup hashes a grouping combination. Floats hash by their bits, so
// the hash agrees with sameValue, the identity encodeKey also uses.
func hashGroup(keys []column.Value) uint64 {
	h := uint64(len(keys))
	for _, k := range keys {
		x := uint64(k.I)
		switch k.K {
		case column.Float64:
			x = math.Float64bits(k.F)
		case column.String:
			x = maphash.String(strSeed, k.S)
		}
		h = hashKey(h ^ x + uint64(k.K))
	}
	return h
}

// sameValue is group-key identity: equal kinds and payloads, floats by bits
// (NaN groups with NaN; -0 and +0 are distinct groups).
func sameValue(x, y column.Value) bool {
	return x.K == y.K && x.I == y.I && math.Float64bits(x.F) == math.Float64bits(y.F) && x.S == y.S
}

func (a *AggTable) slotKeys(s int) []column.Value {
	return a.keys[s*a.width : (s+1)*a.width : (s+1)*a.width]
}

func (a *AggTable) slotSums(s int) []float64 {
	k := len(a.specs)
	return a.sums[s*k : (s+1)*k]
}

// slotExts returns the slot's extremes, nil when the table keeps none.
func (a *AggTable) slotExts(s int) []column.Value {
	if !a.hasExt {
		return nil
	}
	k := len(a.specs)
	return a.exts[s*k : (s+1)*k]
}

func (a *AggTable) isLive(s int) bool { return a.counts[s] != tombstone }

// ownVals gives the table its own counts, sums and exts before a write when
// a clone may still read them: it copies the three once and clears
// sharedVals. Every writer of those arrays calls it first.
func (a *AggTable) ownVals() {
	if a.sharedVals.Load() {
		a.copyVals()
	}
}

// copyVals is ownVals' copy, kept out of line so ownVals inlines.
//
//go:noinline
func (a *AggTable) copyVals() {
	a.counts, a.sums, a.exts = slices.Clone(a.counts), slices.Clone(a.sums), slices.Clone(a.exts)
	a.sharedVals.Store(false)
}

// lookup returns the slot holding keys, live or tombstoned, or -1 together
// with the empty index cell where keys would go (-1 with no index).
func (a *AggTable) lookup(keys []column.Value, h uint64) (slot, cell int) {
	if len(a.index.slots) == 0 {
		return -1, -1
	}
	mask := uint64(len(a.index.slots) - 1)
	for c := h & mask; ; c = (c + 1) & mask {
		s := int(a.index.slots[c]) - 1
		if s < 0 {
			return -1, int(c)
		}
		if a.index.hashes[c] == h && a.keysAre(s, keys) {
			return s, int(c)
		}
	}
}

func (a *AggTable) keysAre(s int, keys []column.Value) bool {
	for i, k := range a.slotKeys(s) {
		if !sameValue(k, keys[i]) {
			return false
		}
	}
	return true
}

// slotFor returns the slot of the group with the given keys, creating the
// group — or reviving its tombstone — with zero accumulators when absent.
func (a *AggTable) slotFor(keys []column.Value) int {
	h := hashGroup(keys)
	s, cell := a.lookup(keys, h)
	switch {
	case s < 0:
		return a.insert(keys, h, cell)
	case !a.isLive(s):
		a.ownVals()
		a.counts[s] = 0
		clear(a.slotSums(s))
		clear(a.slotExts(s))
		a.live++
	}
	return s
}

// insert appends a new slot for keys; cell is lookup's empty index cell.
// Keys and index are copied first when shared, and the index doubles once
// it would be more than half full.
func (a *AggTable) insert(keys []column.Value, h uint64, cell int) int {
	if a.n == 0 {
		a.width = len(keys)
	}
	grow := 2*(a.n+1) > len(a.index.slots)
	if a.shared.Load() {
		a.keys = slices.Clone(a.keys)
		if !grow {
			a.index = slotIndex{hashes: slices.Clone(a.index.hashes), slots: slices.Clone(a.index.slots)}
		}
		a.shared.Store(false)
	}
	if grow {
		a.growIndex()
		_, cell = a.lookup(keys, h)
	}
	s := a.n
	a.n++
	a.live++
	a.index.slots[cell], a.index.hashes[cell] = int32(s+1), h
	a.keys = append(a.keys, keys...)
	a.counts = append(a.counts, 0)
	a.sums = extend(a.sums, len(a.specs))
	if a.hasExt {
		a.exts = extend(a.exts, len(a.specs))
	}
	return s
}

// growIndex rehashes the index into fresh arrays of twice the size (16
// cells at least), leaving the old arrays untouched for a table sharing
// them.
func (a *AggTable) growIndex() {
	size := max(16, 2*len(a.index.slots))
	next := slotIndex{hashes: make([]uint64, size), slots: make([]int32, size)}
	mask := uint64(size - 1)
	for c, s := range a.index.slots {
		if s == 0 {
			continue
		}
		h := a.index.hashes[c]
		d := h & mask
		for next.slots[d] != 0 {
			d = (d + 1) & mask
		}
		next.slots[d], next.hashes[d] = s, h
	}
	a.index = next
}

// extend appends k zero elements to s, growing it amortised.
func extend[T any](s []T, k int) []T {
	n := len(s)
	s = slices.Grow(s, k)[:n+k]
	clear(s[n:])
	return s
}

// Add folds one source row into the table. vals holds one input value per
// spec (ignored for COUNT).
func (a *AggTable) Add(keys, vals []column.Value) {
	a.ownVals()
	s := a.slotFor(keys)
	a.counts[s]++
	first := a.counts[s] == 1
	sums, exts := a.slotSums(s), a.slotExts(s)
	for i, sp := range a.specs {
		switch sp.Func {
		case Sum, Avg:
			sums[i] += vals[i].Float()
		case Count:
			sums[i]++
		case Min:
			if first || column.Less(vals[i], exts[i]) {
				exts[i] = vals[i]
			}
		case Max:
			if first || column.Less(exts[i], vals[i]) {
				exts[i] = vals[i]
			}
		}
	}
}

// AddGroup folds a pre-aggregated group — accumulator values plus its
// COUNT(*) — into the table. Summary-table reads use it to reconstruct the
// aggregate extent from stored group rows. It panics for
// non-self-maintainable aggregates, which cannot be stored as accumulators.
func (a *AggTable) AddGroup(keys []column.Value, accums []float64, count int64) {
	a.fold(keys, 1, count, accums, nil)
}

// Merge folds another table computed with identical specs into a.
func (a *AggTable) Merge(b *AggTable) { a.MergeSigned(b, 1) }

// MergeSigned folds sign*b into a WITHOUT removing emptied groups. It
// accumulates inclusion-exclusion terms, whose intermediate states are not
// proper multisets: a group may pass through count zero with non-zero sums
// and must survive until every term has been applied. All aggregates must
// be self-maintainable when sign is negative.
func (a *AggTable) MergeSigned(b *AggTable, sign int) {
	for s := 0; s < b.n; s++ {
		if b.isLive(s) {
			a.fold(b.slotKeys(s), int64(sign), b.counts[s], b.slotSums(s), b.slotExts(s))
		}
	}
}

// ApplySigned folds a signed compensation table into a. The result is a
// proper multiset again, so groups whose count reaches zero are removed
// (any residual float dust with them). Once tombstones outnumber live
// groups the table is compacted, so a long-lived cache entry under key
// churn stays proportional to its live groups.
func (a *AggTable) ApplySigned(delta *AggTable) {
	for s := 0; s < delta.n; s++ {
		if !delta.isLive(s) || delta.counts[s] == 0 && allZero(delta.slotSums(s)) {
			continue
		}
		if t := a.fold(delta.slotKeys(s), 1, delta.counts[s], delta.slotSums(s), delta.slotExts(s)); a.counts[t] == 0 {
			a.counts[t] = tombstone
			a.live--
		}
	}
	if a.n-a.live > a.live {
		a.compact()
	}
}

// compact drops the tombstoned slots, keeping live slots in order, and
// rebuilds the index. Counts, sums and extremes move in place once owned;
// keys and index go to fresh arrays when shared, so a clone still reading
// them is untouched. Each compaction follows at least as many removals as
// it has slots, so its cost is constant per removal.
func (a *AggTable) compact() {
	a.ownVals()
	keys := a.keys[:0]
	if a.shared.Load() {
		keys = make([]column.Value, 0, a.live*a.width)
	}
	k := len(a.specs)
	n := 0
	for s := 0; s < a.n; s++ {
		if !a.isLive(s) {
			continue
		}
		keys = append(keys, a.slotKeys(s)...)
		a.counts[n] = a.counts[s]
		copy(a.sums[n*k:(n+1)*k], a.slotSums(s))
		if a.hasExt {
			copy(a.exts[n*k:(n+1)*k], a.slotExts(s))
		}
		n++
	}
	a.n, a.keys = n, keys
	a.counts, a.sums = a.counts[:n], a.sums[:n*k]
	if a.hasExt {
		a.exts = a.exts[:n*k]
	}
	size := 16
	for size < 2*n {
		size *= 2
	}
	a.index = slotIndex{hashes: make([]uint64, size), slots: make([]int32, size)}
	a.shared.Store(false)
	for s := 0; s < n; s++ {
		h := hashGroup(a.slotKeys(s))
		_, cell := a.lookup(a.slotKeys(s), h)
		a.index.slots[cell], a.index.hashes[cell] = int32(s+1), h
	}
}

// fold is the one table-to-table fold: it adds sign (±1) times one group's
// partial aggregate — count rows, sums holding the SUM/AVG sums and COUNT
// counts per spec, exts the MIN/MAX extremes per spec (other slots ignored)
// — into the group with the given keys, and returns that group's slot. A
// group that already exists adds the partial's sum in one step: S + (a+b)
// rather than per-row Add's (S+a)+b; sign*x is exact, so a signed fold is
// bit-identical to an unsigned one of the negated sums. MIN/MAX extremes
// fold only with sign +1 and non-nil exts, since they cannot be subtracted;
// anything else panics.
func (a *AggTable) fold(keys []column.Value, sign, count int64, sums []float64, exts []column.Value) int {
	a.ownVals()
	s := a.slotFor(keys)
	first := a.counts[s] == 0
	a.counts[s] += sign * count
	gs, ge := a.slotSums(s), a.slotExts(s)
	for i, sp := range a.specs {
		switch sp.Func {
		case Sum, Avg, Count:
			gs[i] += float64(sign) * sums[i]
		case Min, Max:
			if sign < 0 || exts == nil {
				panic(fmt.Sprintf("query: signed fold of non-self-maintainable %s", sp.Func))
			}
			if first || sp.Func == Min && column.Less(exts[i], ge[i]) ||
				sp.Func == Max && column.Less(ge[i], exts[i]) {
				ge[i] = exts[i]
			}
		}
	}
	return s
}

func allZero(fs []float64) bool {
	for _, f := range fs {
		if f != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the table; the cache hands clones
// out so compensation never mutates the cached value. It shares all five
// arrays copy-on-write, each capped at its length so an append on either
// side never writes the other's storage: it allocates only the new table's
// header, whatever the group count, and copies and hashes nothing. The
// first write on either side pays the copy (ownVals, insert).
func (a *AggTable) Clone() *AggTable {
	a.shared.Store(true)
	a.sharedVals.Store(true)
	c := &AggTable{
		specs:  a.specs,
		hasExt: a.hasExt,
		width:  a.width,
		n:      a.n,
		live:   a.live,
		keys:   a.keys[:len(a.keys):len(a.keys)],
		counts: a.counts[:len(a.counts):len(a.counts)],
		sums:   a.sums[:len(a.sums):len(a.sums)],
		exts:   a.exts[:len(a.exts):len(a.exts)],
		index:  a.index,
	}
	c.shared.Store(true)
	c.sharedVals.Store(true)
	return c
}

// MemBytes estimates the heap footprint of the table — the "size of
// aggregate" cache metric. The estimate is per group, as for a table
// holding one object per group, and independent of the slot layout.
func (a *AggTable) MemBytes() uint64 {
	var m uint64
	var ek []byte
	k := uint64(len(a.specs))
	for s := 0; s < a.n; s++ {
		if !a.isLive(s) {
			continue
		}
		ek = appendKey(ek[:0], a.slotKeys(s))
		m += uint64(len(ek)) + 16 + k*8 + k*16 + 8
		for _, key := range a.slotKeys(s) {
			m += 24
			if key.K == column.String {
				m += uint64(len(key.S))
			}
		}
	}
	return m
}

// Row is one output row of an aggregate query.
type Row struct {
	Keys []column.Value
	Aggs []column.Value
	// Count is the COUNT(*) of the group.
	Count int64
}

// Rows finalizes the table into output rows, sorted by encoded group key
// for deterministic results. AVG is rendered as sum/count; COUNT as int64.
func (a *AggTable) Rows() []Row { return a.rows(a.sortedSlots()) }

// UnsortedRows finalizes the table's groups like Rows, in slot order
// instead of sorted: it skips the key encoding and sort.
func (a *AggTable) UnsortedRows() []Row {
	slots := make([]int32, 0, a.live)
	for s := 0; s < a.n; s++ {
		if a.isLive(s) {
			slots = append(slots, int32(s))
		}
	}
	return a.rows(slots)
}

// rows finalizes the given slots, in order, into rows whose aggregate
// values share one slab. Row keys alias the table's key storage.
func (a *AggTable) rows(slots []int32) []Row {
	k := len(a.specs)
	out := make([]Row, len(slots))
	slab := make([]column.Value, len(slots)*k)
	for i, s32 := range slots {
		s := int(s32)
		count, sums, exts := a.counts[s], a.slotSums(s), a.slotExts(s)
		aggs := slab[i*k : (i+1)*k : (i+1)*k]
		for j, sp := range a.specs {
			switch sp.Func {
			case Sum:
				aggs[j] = column.FloatV(sums[j])
			case Count:
				aggs[j] = column.IntV(int64(sums[j] + 0.5))
			case Avg:
				aggs[j] = column.FloatV(sums[j] / float64(count))
			case Min, Max:
				aggs[j] = exts[j]
			}
		}
		out[i] = Row{Keys: a.slotKeys(s), Aggs: aggs, Count: count}
	}
	return out
}

// sortedSlots lists the live slots in encoded-key order.
func (a *AggTable) sortedSlots() []int32 {
	var buf []byte
	start := make([]int, a.n+1)
	slots := make([]int32, 0, a.live)
	for s := 0; s < a.n; s++ {
		start[s] = len(buf)
		if a.isLive(s) {
			buf = appendKey(buf, a.slotKeys(s))
			slots = append(slots, int32(s))
		}
	}
	start[a.n] = len(buf)
	slices.SortFunc(slots, func(x, y int32) int {
		return bytes.Compare(buf[start[x]:start[x+1]], buf[start[y]:start[y+1]])
	})
	return slots
}

// Perturb deterministically corrupts one group — the fault-injection hook
// behind shadow-verification testing. The victim group is chosen by seed
// over the sorted group keys and one accumulator is bumped by a value large
// enough to clear Equal's tolerance (the count when no accumulator exists).
// It returns the corrupted group's encoded key, or "" for an empty table.
// Production code never calls this; tests and the difftest "corrupt" op do.
func (a *AggTable) Perturb(seed int64) string {
	if a.live == 0 {
		return ""
	}
	slots := a.sortedSlots()
	if seed < 0 {
		seed = -seed
	}
	s := int(slots[seed%int64(len(slots))])
	a.ownVals()
	// Bumping COUNT(*) always surfaces in finalized rows (Row.Count and
	// AVG), regardless of the spec mix; a Sum/Avg accumulator is bumped too
	// when one exists so SUM outputs shift as well.
	a.counts[s]++
	if sums := a.slotSums(s); len(sums) > 0 {
		sums[seed%int64(len(sums))] += 1
	}
	return encodeKey(a.slotKeys(s))
}

// Equal reports whether two tables hold the same groups with numerically
// close accumulators (tolerance for float summation order) and identical
// MIN/MAX extremes, which no summation order can change. Extremes compare
// in the total order of column.Compare, under which NaN equals NaN.
func (a *AggTable) Equal(b *AggTable) bool {
	if a.live != b.live {
		return false
	}
	const eps = 1e-6
	for s := 0; s < a.n; s++ {
		if !a.isLive(s) {
			continue
		}
		keys := a.slotKeys(s)
		t, _ := b.lookup(keys, hashGroup(keys))
		if t < 0 || a.counts[s] != b.counts[t] {
			return false
		}
		gs, hs := a.slotSums(s), b.slotSums(t)
		ge, he := a.slotExts(s), b.slotExts(t)
		for i, sp := range a.specs {
			if sp.Func == Min || sp.Func == Max {
				if ge[i].K != he[i].K || column.Compare(ge[i], he[i]) != 0 {
					return false
				}
				continue
			}
			d := gs[i] - hs[i]
			scale := math.Max(1, math.Max(math.Abs(gs[i]), math.Abs(hs[i])))
			if math.Abs(d) > eps*scale {
				return false
			}
		}
	}
	return true
}
