package column

import (
	"cmp"
	"slices"

	"aggcache/internal/vec"
)

// mainCol is a frozen, read-optimized column: a sorted deduplicated
// dictionary plus a compressed vector of value IDs (bit-packed or
// run-length encoded, whichever is smaller). The dictionary's order is
// cmp.Compare's total order, under which a float NaN sorts first and equals
// every other NaN, so Lookup's binary search finds it. The dictionary holds
// exactly its d entries; the builder's n-long row arrays do not outlive
// Build.
type mainCol[T elem] struct {
	dict []T
	ids  idVector
	xlCache
}

type mainBuilder[T elem] struct {
	vals []T
}

func (b *mainBuilder[T]) Append(v Value) { b.vals = append(b.vals, fromValue[T](v)) }

func (b *mainBuilder[T]) Grow(n int) { b.vals = slices.Grow(b.vals, n) }

// Build encodes the n accumulated rows over d distinct values in
// O(n + d log d): a non-decreasing input (bulk-loaded keys, the tid columns
// of an insertion-order merge) in linear passes, any other through a hash
// of the distinct values presized to an estimate of d from a row sample.
// Of values that compare equal but differ in bits (+0 and -0, NaNs), the
// first in row order is the one kept.
func (b *mainBuilder[T]) Build() Reader {
	dict, rowIDs, ok := encodeSorted(b.vals)
	if !ok {
		dict, rowIDs = encodeHashed(b.vals, estimateDistinct(b.vals))
	}
	b.vals = nil
	maxID := uint64(0)
	if len(dict) > 1 {
		maxID = uint64(len(dict) - 1)
	}
	ids := buildIDVector(rowIDs, vec.BitsFor(maxID))
	// Integer dictionaries get an extra compression step: the sorted
	// entries are stored as bit-packed offsets from the smallest value.
	// Dense domains — primary keys and especially the monotonically
	// increasing tid columns of the object-aware design — shrink to a few
	// bits per entry, mirroring the dictionary compression of a real
	// columnar main store.
	if intDict, ok := any(dict).([]int64); ok {
		return newIntMain(intDict, ids)
	}
	return &mainCol[T]{dict: dict, ids: ids, xlCache: newXLCache()}
}

// encodeSorted encodes a non-decreasing input without sorting or hashing:
// one pass counts the distinct values, stopping at the first descent
// (ok = false), and a second fills the d-entry dictionary and the row IDs.
func encodeSorted[T elem](vals []T) (dict []T, ids []uint32, ok bool) {
	d := min(len(vals), 1)
	for i := 1; i < len(vals); i++ {
		switch cmp.Compare(vals[i-1], vals[i]) {
		case 1:
			return nil, nil, false
		case -1:
			d++
		}
	}
	dict = make([]T, 0, d)
	ids = make([]uint32, len(vals))
	for i, v := range vals {
		if i == 0 || cmp.Compare(vals[i-1], v) != 0 {
			dict = append(dict, v)
		}
		ids[i] = uint32(len(dict) - 1)
	}
	return dict, ids, true
}

// sampleRows is the size of the evenly spaced row sample estimateDistinct
// counts.
const sampleRows = 1024

// estimateDistinct estimates the distinct count of vals from an evenly
// spaced sample of at most sampleRows rows with the bias-corrected Chao1
// estimator ds + f1(f1-1)/(2(f2+1)), where ds counts the sample's distinct
// values and f1, f2 those seen once and twice; capped at len(vals). A
// sample without repeats reads as unique, one of a few values each seen
// often as exactly those.
func estimateDistinct[T elem](vals []T) int {
	n := len(vals)
	sample := make([]T, min(n, sampleRows))
	for i := range sample {
		sample[i] = vals[i*n/len(sample)]
	}
	slices.SortFunc(sample, cmp.Compare[T])
	ds, f1, f2 := 0, 0, 0
	for i := 0; i < len(sample); {
		j := i + 1
		for j < len(sample) && cmp.Compare(sample[i], sample[j]) == 0 {
			j++
		}
		ds++
		switch j - i {
		case 1:
			f1++
		case 2:
			f2++
		}
		i = j
	}
	return min(n, ds+f1*(f1-1)/(2*(f2+1)))
}

// encodeHashed encodes rows in row order through a hash index of their
// distinct values, presized for d of them, sorts only those values, and
// renumbers the row IDs through the rank array. A Go map treats +0 and -0
// as one key but never finds a NaN key, so NaN keeps one ID apart, as in a
// delta column.
func encodeHashed[T elem](vals []T, d int) ([]T, []uint32) {
	type entry struct {
		v  T
		id uint32 // first-occurrence ID, the index into rank
	}
	index := make(map[T]uint32, d)
	distinct := make([]entry, 0, d)
	nan := uint32(0) // 1 + the ID of NaN, 0 while none was seen
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		if v != v { // only a float NaN differs from itself
			if nan == 0 {
				distinct = append(distinct, entry{v, uint32(len(distinct))})
				nan = uint32(len(distinct))
			}
			ids[i] = nan - 1
			continue
		}
		id, ok := index[v]
		if !ok {
			id = uint32(len(distinct))
			index[v] = id
			distinct = append(distinct, entry{v, id})
		}
		ids[i] = id
	}
	slices.SortFunc(distinct, func(a, b entry) int { return cmp.Compare(a.v, b.v) })
	dict := make([]T, len(distinct))
	rank := make([]uint32, len(distinct))
	for r, e := range distinct {
		dict[r] = e.v
		rank[e.id] = uint32(r)
	}
	for i, id := range ids {
		ids[i] = rank[id]
	}
	return dict, ids
}

// intMain is the read-optimized int64 column: bit-packed value IDs over a
// delta-compressed sorted dictionary (base value + packed offsets).
type intMain struct {
	base int64
	offs *vec.Packed
	ids  idVector
	n    int // dictionary cardinality
	// fences holds every fenceStep-th offset of a sparse dictionary, so
	// Lookup narrows its search to one block without a packed read, and
	// slope is (n-1)/span, its interpolation guess of an offset's ID; nil
	// and 0 for a dense dictionary, which needs no search, and for one of
	// at most fenceStep entries.
	fences []uint64
	slope  float64
	xlCache
}

// fenceStep is the dictionary block a sparse int64 main's fence covers.
const fenceStep = 64

func newIntMain(dict []int64, ids idVector) *intMain {
	c := &intMain{ids: ids, n: len(dict), xlCache: newXLCache()}
	if len(dict) == 0 {
		return c
	}
	c.base = dict[0]
	span := uint64(dict[len(dict)-1]) - uint64(dict[0])
	c.offs = vec.NewPacked(vec.BitsFor(span), len(dict))
	for i, v := range dict {
		c.offs.Set(i, uint64(v)-uint64(c.base))
	}
	if span != uint64(len(dict)-1) && len(dict) > fenceStep {
		c.slope = float64(len(dict)-1) / float64(span)
		c.fences = make([]uint64, 0, (len(dict)+fenceStep-1)/fenceStep)
		for i := 0; i < len(dict); i += fenceStep {
			c.fences = append(c.fences, uint64(dict[i])-uint64(c.base))
		}
	}
	return c
}

func (c *intMain) dictAt(id uint32) int64 {
	return int64(uint64(c.base) + c.offs.Get(int(id)))
}

// Kind implements Reader.
func (c *intMain) Kind() Kind { return Int64 }

// Len implements Reader.
func (c *intMain) Len() int { return c.ids.Len() }

// Value implements Reader.
func (c *intMain) Value(row int) Value { return IntV(c.dictAt(uint32(c.ids.Get(row)))) }

// Int64 implements Reader.
func (c *intMain) Int64(row int) int64 { return c.dictAt(uint32(c.ids.Get(row))) }

// idChunk is how many value IDs the bulk decoders unpack at a time into a
// stack buffer before decoding them through the dictionary.
const idChunk = 256

// Int64Block implements Int64Blocker. The id-vector representation is
// resolved once per block instead of once per row: packed IDs are unpacked
// in bulk, and the RLE layout decodes runs sequentially rather than
// re-walking the sample index.
func (c *intMain) Int64Block(start int, dst []int64) {
	switch ids := c.ids.(type) {
	case packedIDs:
		var buf [idChunk]uint32
		for lo := 0; lo < len(dst); lo += idChunk {
			out := dst[lo:min(lo+idChunk, len(dst))]
			ids.p.Unpack(start+lo, buf[:len(out)])
			for i, id := range buf[:len(out)] {
				out[i] = c.dictAt(id)
			}
		}
	case *rleIDs:
		r := int(ids.samples[start>>sampleShift])
		for r+1 < len(ids.starts) && int(ids.starts[r+1]) <= start {
			r++
		}
		v := c.dictAt(uint32(ids.ids.Get(r)))
		for i := range dst {
			row := start + i
			for r+1 < len(ids.starts) && int(ids.starts[r+1]) <= row {
				r++
				v = c.dictAt(uint32(ids.ids.Get(r)))
			}
			dst[i] = v
		}
	default:
		for i := range dst {
			dst[i] = c.dictAt(uint32(c.ids.Get(start + i)))
		}
	}
}

// Int64Gather implements Int64Gatherer: value IDs are gathered in bulk,
// then decoded through the dictionary.
func (c *intMain) Int64Gather(rows []int32, dst []int64) {
	var buf [idChunk]uint32
	for lo := 0; lo < len(rows); lo += idChunk {
		chunk := rows[lo:min(lo+idChunk, len(rows))]
		idVectorGather(c.ids, chunk, buf[:len(chunk)])
		for i, id := range buf[:len(chunk)] {
			dst[lo+i] = c.dictAt(id)
		}
	}
}

// Float64Gather implements Float64Gatherer, decoding as Int64Gather does.
func (c *intMain) Float64Gather(rows []int32, dst []float64) {
	var buf [idChunk]uint32
	for lo := 0; lo < len(rows); lo += idChunk {
		chunk := rows[lo:min(lo+idChunk, len(rows))]
		idVectorGather(c.ids, chunk, buf[:len(chunk)])
		for i, id := range buf[:len(chunk)] {
			dst[lo+i] = float64(c.dictAt(id))
		}
	}
}

// IDGather implements IDGatherer.
func (c *intMain) IDGather(rows []int32, dst []uint32) { idVectorGather(c.ids, rows, dst) }

// Lookup implements Lookuper: a binary search of the packed offsets for
// v's offset from the base. Two cases take O(1): a value above the largest
// entry, or below the base (which wraps to an offset beyond every entry),
// is absent — the fresh-key case of an insert's primary-key check — and in
// a dense dictionary, whose n sorted distinct offsets end at n-1 and so are
// exactly 0..n-1, the offset is the ID. A sparse dictionary of more than
// fenceStep entries first probes its interpolation guess.
func (c *intMain) Lookup(v Value) (uint32, bool) {
	if c.n == 0 {
		return 0, false
	}
	off := uint64(fromValue[int64](v)) - uint64(c.base)
	switch last := c.offs.Get(c.n - 1); {
	case off > last:
		return uint32(c.n), false
	case last == uint64(c.n-1):
		return uint32(off), true
	}
	if c.fences != nil {
		// Keys spread evenly sit where interpolating over the whole
		// dictionary puts them: one probe usually hits.
		g := min(max(int(float64(int64(off))*c.slope), 0), c.n-1)
		if c.offs.Get(g) == off {
			return uint32(g), true
		}
	}
	return c.search(off)
}

// search finds off among a sparse dictionary's offsets by a binary search
// of the packed offsets, narrowed by the fences, when present, to one
// fenceStep-entry block. Kept out of Lookup so its O(1) cases stay lean.
func (c *intMain) search(off uint64) (uint32, bool) {
	lo, hi := 0, c.n
	if f := c.fences; f != nil {
		// The last block whose first entry is at most off (the first
		// block's is 0) holds off if any block does.
		b := 0
		for n := len(f); n > 1; {
			half := n >> 1
			if f[b+half] <= off {
				b += half
			}
			n -= half
		}
		lo, hi = b*fenceStep, min(b*fenceStep+fenceStep, c.n)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.offs.Get(mid) < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo), lo < c.n && c.offs.Get(lo) == off
}

// DictLen implements Reader.
func (c *intMain) DictLen() int { return c.n }

// ID implements Reader.
func (c *intMain) ID(row int) uint32 { return uint32(c.ids.Get(row)) }

// DictValue implements Reader.
func (c *intMain) DictValue(id uint32) Value { return IntV(c.dictAt(id)) }

// MinMax implements Reader.
func (c *intMain) MinMax() (Value, Value, bool) {
	if c.n == 0 {
		return Value{}, Value{}, false
	}
	return IntV(c.dictAt(0)), IntV(c.dictAt(uint32(c.n - 1))), true
}

// MemBytes implements Reader.
func (c *intMain) MemBytes() uint64 {
	m := c.ids.MemBytes() + 8 + uint64(len(c.fences))*8
	if c.offs != nil {
		m += c.offs.MemBytes()
	}
	return m
}

func (c *mainCol[T]) Kind() Kind { return kindOf[T]() }

func (c *mainCol[T]) Len() int { return c.ids.Len() }

func (c *mainCol[T]) Value(row int) Value { return toValue(c.dict[c.ids.Get(row)]) }

func (c *mainCol[T]) Int64(row int) int64 {
	if v, ok := any(c.dict[c.ids.Get(row)]).(int64); ok {
		return v
	}
	panic("column: Int64 on non-int64 main column")
}

// Float64Gather implements Float64Gatherer for float64 main columns (int64
// main columns are intMain); other element types panic.
func (c *mainCol[T]) Float64Gather(rows []int32, dst []float64) {
	dict, ok := any(c.dict).([]float64)
	if !ok {
		panic("column: Float64Gather on non-float64 main column")
	}
	var buf [idChunk]uint32
	for lo := 0; lo < len(rows); lo += idChunk {
		chunk := rows[lo:min(lo+idChunk, len(rows))]
		idVectorGather(c.ids, chunk, buf[:len(chunk)])
		for i, id := range buf[:len(chunk)] {
			dst[lo+i] = dict[id]
		}
	}
}

// IDGather implements IDGatherer.
func (c *mainCol[T]) IDGather(rows []int32, dst []uint32) { idVectorGather(c.ids, rows, dst) }

// Lookup implements Lookuper by binary search of the sorted dictionary.
func (c *mainCol[T]) Lookup(v Value) (uint32, bool) {
	t := fromValue[T](v)
	lo, hi := 0, len(c.dict)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmp.Less(c.dict[mid], t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo), lo < len(c.dict) && cmp.Compare(c.dict[lo], t) == 0
}

func (c *mainCol[T]) DictLen() int { return len(c.dict) }

func (c *mainCol[T]) ID(row int) uint32 { return uint32(c.ids.Get(row)) }

func (c *mainCol[T]) DictValue(id uint32) Value { return toValue(c.dict[id]) }

func (c *mainCol[T]) MinMax() (Value, Value, bool) {
	if len(c.dict) == 0 {
		return Value{}, Value{}, false
	}
	return toValue(c.dict[0]), toValue(c.dict[len(c.dict)-1]), true
}

func (c *mainCol[T]) MemBytes() uint64 {
	var m uint64 = c.ids.MemBytes()
	for _, v := range c.dict {
		m += memOf(v)
	}
	return m
}
