package query

import (
	"math"

	"aggcache/internal/column"
)

// groupMode is how the group-by kernel assigns a subjoin's tuples to group
// slots, chosen per subjoin from the key columns' dictionary sizes.
type groupMode uint8

const (
	// groupDense indexes a scratch slot array by the mixed-radix composite
	// key: the composite domain is at most denseGroupLimit.
	groupDense groupMode = iota
	// groupHash probes an open-addressed table keyed on a hash of the value
	// ID tuple and verifies the IDs: every larger domain.
	groupHash
)

// String implements fmt.Stringer; it is the subjoin span's agg attribute.
func (m groupMode) String() string {
	if m == groupDense {
		return "dense"
	}
	return "hash"
}

// denseGroupLimit bounds the composite key domain the dense mode indexes:
// 64 Ki int32 slots, 256 KiB of scratch.
const denseGroupLimit = 1 << 16

// groupKernel is the one aggregation path for join output. It groups a
// subjoin's tuples on the dictionary value IDs of the key columns — IDs are
// meaningful because a subjoin reads exactly one store per table — and
// accumulates each aggregate column-at-a-time into per-slot arrays, then
// decodes every group's keys once, from its first tuple, and folds the
// group into the output table. Its buffers live in the execution scratch,
// so a subjoin whose groups already exist in the output allocates nothing.
type groupKernel struct {
	keyIDs []uint32 // gathered key value IDs, column-major: column c at [c*n, (c+1)*n)
	comp   []uint64 // per tuple: composite key (dense) or ID-tuple hash (hash)
	gids   []int32  // per tuple: group slot
	rep    []int32  // per slot: the slot's first tuple
	dense  []int32  // dense mode: composite key -> slot+1; all zero between calls
	hkeys  []uint64 // hash mode: open-addressed ID-tuple hashes ...
	hslots []int32  // ... and their slot+1, 0 = empty

	counts []int64
	sums   []float64 // SUM/AVG sums, column-major: spec i at [i*G, (i+1)*G)
	exts   []uint64  // MIN/MAX extremes, column-major: int64 or float64 bits, or a string's value ID
	f64    []float64
	i64    []int64
	valIDs []uint32

	keys  []column.Value // one group's decoded keys
	accs  []float64      // one group's accumulators, per spec
	extVs []column.Value // one group's decoded extremes, per spec
}

// aggregate folds n join tuples into out. keyRows[c] and aggRows[i] list,
// per tuple, the row of the key column keyCols[c] and of the aggregate
// column aggCols[i] (nil for COUNT(*)). It reports the grouping mode and the
// number of groups the tuples formed.
//
// Float sums are bit-identical to folding the tuples one by one with
// AggTable.Add into a table that does not hold the group yet: both add the
// group's values in tuple order starting from zero.
func (k *groupKernel) aggregate(specs []AggSpec, keyCols []column.Reader, keyRows [][]int32, aggCols []column.Reader, aggRows [][]int32, n int, out *AggTable) (groupMode, int) {
	mode := k.assign(keyCols, keyRows, n)
	groups := len(k.rep)
	k.accumulate(specs, aggCols, aggRows, groups)

	k.keys = grow(k.keys, len(keyCols))
	k.accs = grow(k.accs, len(specs))
	k.extVs = grow(k.extVs, len(specs))
	for g, t := range k.rep {
		for c, col := range keyCols {
			k.keys[c] = col.Value(int(keyRows[c][t]))
		}
		for i, s := range specs {
			switch s.Func {
			case Count:
				k.accs[i] = float64(k.counts[g])
			case Sum, Avg:
				k.accs[i] = k.sums[i*groups+g]
			case Min, Max:
				k.extVs[i] = decodeExtreme(aggCols[i], k.exts[i*groups+g])
			}
		}
		out.fold(k.keys, 1, k.counts[g], k.accs, k.extVs)
	}
	return mode, groups
}

// assign maps every tuple to a group slot (k.gids) and records each slot's
// first tuple (k.rep), slots numbered in order of first appearance. The
// composite key is mixed-radix over the key columns' dictionary sizes:
// column c's ID is scaled by the product of the sizes before it. Each
// DictLen is read at most once, here; it bounds the IDs of every row the
// subjoin reads, since stores only change under the database's writer lock.
// Once the product passes denseGroupLimit the tuples are keyed on a hash of
// their ID tuple instead.
func (k *groupKernel) assign(keyCols []column.Reader, keyRows [][]int32, n int) groupMode {
	k.gids = grow(k.gids, n)
	k.rep = k.rep[:0]
	k.comp = grow(k.comp, n)
	k.keyIDs = grow(k.keyIDs, len(keyCols)*n)
	clear(k.comp)

	// domain stops growing once past the limit, so it cannot overflow: at
	// most 2^16 times a dictionary size of at most 2^32 (IDs are uint32).
	domain := uint64(1)
	for c, col := range keyCols {
		ids := k.keyIDs[c*n : (c+1)*n]
		col.(column.IDGatherer).IDGather(keyRows[c], ids)
		if domain <= denseGroupLimit {
			for t, id := range ids {
				k.comp[t] += uint64(id) * domain
			}
			domain *= uint64(col.DictLen())
		}
	}
	if domain > denseGroupLimit {
		clear(k.comp)
		for c := range keyCols {
			for t, id := range k.keyIDs[c*n : (c+1)*n] {
				k.comp[t] = hashKey(k.comp[t] + uint64(id))
			}
		}
		k.probe(n)
		return groupHash
	}

	if len(k.dense) < int(domain) {
		k.dense = make([]int32, domain)
	}
	for t, key := range k.comp {
		s := k.dense[key]
		if s == 0 {
			k.rep = append(k.rep, int32(t))
			s = int32(len(k.rep))
			k.dense[key] = s
		}
		k.gids[t] = s - 1
	}
	for _, t := range k.rep {
		k.dense[k.comp[t]] = 0
	}
	return groupDense
}

// probe assigns slots through an open-addressed table over the ID-tuple
// hashes in k.comp, sized to at least twice the tuple count (every tuple
// may start a group). Hashes can collide, so a slot matches only when the
// ID tuples are equal too.
func (k *groupKernel) probe(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	k.hkeys = grow(k.hkeys, size)
	k.hslots = grow(k.hslots, size)
	clear(k.hslots)
	mask := uint64(size - 1)
	for t, key := range k.comp {
		h := key & mask
		for {
			s := k.hslots[h]
			if s == 0 {
				k.rep = append(k.rep, int32(t))
				s = int32(len(k.rep))
				k.hslots[h], k.hkeys[h] = s, key
			} else if k.hkeys[h] != key || !k.sameIDs(t, int(k.rep[s-1]), n) {
				h = (h + 1) & mask
				continue
			}
			k.gids[t] = s - 1
			break
		}
	}
}

// sameIDs reports whether tuples t and u carry the same key value IDs.
func (k *groupKernel) sameIDs(t, u, n int) bool {
	for c := 0; c < len(k.keyIDs); c += n {
		if k.keyIDs[c+t] != k.keyIDs[c+u] {
			return false
		}
	}
	return true
}

// accumulate computes the per-slot COUNT(*), SUM/AVG sums and MIN/MAX
// extremes, one aggregate column at a time from bulk gathers. COUNT needs
// no pass of its own: every tuple of a slot counts once, so it is the
// slot's COUNT(*).
func (k *groupKernel) accumulate(specs []AggSpec, aggCols []column.Reader, aggRows [][]int32, groups int) {
	k.counts = grow(k.counts, groups)
	clear(k.counts)
	for _, g := range k.gids {
		k.counts[g]++
	}
	k.sums = grow(k.sums, len(specs)*groups)
	clear(k.sums)
	k.exts = grow(k.exts, len(specs)*groups)
	for i, s := range specs {
		switch s.Func {
		case Sum, Avg:
			k.f64 = gatherFloat64(aggCols[i], aggRows[i], k.f64)
			acc := k.sums[i*groups : (i+1)*groups]
			for t, g := range k.gids {
				acc[g] += k.f64[t]
			}
		case Min, Max:
			k.extremes(aggCols[i], aggRows[i], s.Func == Min, k.exts[i*groups:(i+1)*groups])
		}
	}
}

// extremes computes one MIN (isMin) or MAX aggregate per slot into ext,
// typed by the column kind. Each slot starts at its first tuple's value and
// only a strictly better value replaces it — the tie rule of AggTable.Add.
func (k *groupKernel) extremes(col column.Reader, rows []int32, isMin bool, ext []uint64) {
	switch col.Kind() {
	case column.Int64:
		k.i64 = gatherInt64(col, rows, k.i64)
		for g, t := range k.rep {
			ext[g] = uint64(k.i64[t])
		}
		for t, g := range k.gids {
			if v, e := k.i64[t], int64(ext[g]); isMin && v < e || !isMin && v > e {
				ext[g] = uint64(v)
			}
		}
	case column.Float64:
		k.f64 = gatherFloat64(col, rows, k.f64)
		for g, t := range k.rep {
			ext[g] = math.Float64bits(k.f64[t])
		}
		for t, g := range k.gids {
			if v, e := k.f64[t], math.Float64frombits(ext[g]); isMin && v < e || !isMin && v > e {
				ext[g] = math.Float64bits(v)
			}
		}
	default:
		// Strings: the extreme's value ID, compared through the dictionary
		// (a delta's dictionary is unsorted, so IDs do not order values).
		k.valIDs = grow(k.valIDs, len(rows))
		col.(column.IDGatherer).IDGather(rows, k.valIDs)
		for g, t := range k.rep {
			ext[g] = uint64(k.valIDs[t])
		}
		for t, g := range k.gids {
			id := k.valIDs[t]
			if uint64(id) == ext[g] {
				continue
			}
			if v, e := col.DictValue(id).S, col.DictValue(uint32(ext[g])).S; isMin && v < e || !isMin && v > e {
				ext[g] = uint64(id)
			}
		}
	}
}

// decodeExtreme turns an extreme recorded by extremes back into a value.
func decodeExtreme(col column.Reader, x uint64) column.Value {
	switch col.Kind() {
	case column.Int64:
		return column.IntV(int64(x))
	case column.Float64:
		return column.FloatV(math.Float64frombits(x))
	}
	return col.DictValue(uint32(x))
}

// hashKey is the 64-bit mix (splitmix64 finalizer) the hash mode applies to
// value-ID tuples. Sequential IDs would otherwise pile into adjacent
// buckets.
func hashKey(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// grow returns s resized to n elements, reusing its backing array when it
// is large enough. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// gatherInt64 materializes the int64 values of the given rows into dst
// (resized, reused). Every int64 column kind implements
// column.Int64Gatherer.
func gatherInt64(col column.Reader, rows []int32, dst []int64) []int64 {
	dst = grow(dst, len(rows))
	col.(column.Int64Gatherer).Int64Gather(rows, dst)
	return dst
}

// gatherFloat64 materializes the numeric values of the given rows as
// float64 into dst (resized, reused). Every numeric column kind implements
// column.Float64Gatherer.
func gatherFloat64(col column.Reader, rows []int32, dst []float64) []float64 {
	dst = grow(dst, len(rows))
	col.(column.Float64Gatherer).Float64Gather(rows, dst)
	return dst
}
