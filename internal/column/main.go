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
// every other NaN, so the builder's binary search and Lookup find it.
type mainCol[T elem] struct {
	dict []T
	ids  idVector
	xlCache
}

type mainBuilder[T elem] struct {
	vals []T
}

func (b *mainBuilder[T]) Append(v Value) { b.vals = append(b.vals, fromValue[T](v)) }

func (b *mainBuilder[T]) Build() Reader {
	// Sort a copy to derive the dictionary, keeping row order intact.
	sorted := make([]T, len(b.vals))
	copy(sorted, b.vals)
	slices.SortFunc(sorted, cmp.Compare[T])
	dict := sorted[:0]
	for i, v := range sorted {
		if i == 0 || cmp.Compare(v, dict[len(dict)-1]) != 0 {
			dict = append(dict, v)
		}
	}
	maxID := uint64(0)
	if len(dict) > 1 {
		maxID = uint64(len(dict) - 1)
	}
	rowIDs := make([]uint32, len(b.vals))
	for i, v := range b.vals {
		// Binary search is exact: dict contains every distinct value.
		lo, hi := 0, len(dict)
		for lo < hi {
			mid := (lo + hi) / 2
			if cmp.Less(dict[mid], v) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		rowIDs[i] = uint32(lo)
	}
	b.vals = nil
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

// intMain is the read-optimized int64 column: bit-packed value IDs over a
// delta-compressed sorted dictionary (base value + packed offsets).
type intMain struct {
	base int64
	offs *vec.Packed
	ids  idVector
	n    int // dictionary cardinality
	xlCache
}

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

// Lookup implements lookuper: a binary search of the packed offsets for
// v's offset from the base. A value below the base wraps to an offset
// beyond every entry, so it is not found.
func (c *intMain) Lookup(v Value) (uint32, bool) {
	off := uint64(fromValue[int64](v)) - uint64(c.base)
	lo, hi := 0, c.n
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
	m := c.ids.MemBytes() + 8
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

// Lookup implements lookuper by binary search of the sorted dictionary.
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
