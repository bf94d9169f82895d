package column

import (
	"cmp"
	"math"
)

// deltaCol is a write-optimized column: an unsorted append-order dictionary
// with a hash index for O(1) encoding, plus an uncompressed value-ID vector.
// A Go map never finds a NaN key, so a float column keeps NaN's ID apart:
// like a main dictionary, the delta holds one NaN entry, equal to every NaN.
type deltaCol[T elem] struct {
	dict  []T
	index map[T]uint32
	nan   uint32 // 1 + the ID of NaN, 0 while the dictionary holds none
	ids   []uint32
	lo    T
	hi    T
	xlCache
}

func newDeltaCol[T elem]() *deltaCol[T] {
	return &deltaCol[T]{index: make(map[T]uint32), xlCache: newXLCache()}
}

func (c *deltaCol[T]) Kind() Kind { return kindOf[T]() }

func (c *deltaCol[T]) Len() int { return len(c.ids) }

func (c *deltaCol[T]) Append(v Value) {
	t := fromValue[T](v)
	id, ok := c.Lookup(v)
	if !ok {
		id = uint32(len(c.dict))
		c.dict = append(c.dict, t)
		if isNaN(v) {
			c.nan = id + 1
		} else {
			c.index[t] = id
		}
		// The bounds follow the main dictionaries' order (cmp.Less), NaN
		// lowest; t < c.lo would leave a NaN bound stuck.
		if len(c.dict) == 1 || cmp.Less(t, c.lo) {
			c.lo = t
		}
		if len(c.dict) == 1 || cmp.Less(c.hi, t) {
			c.hi = t
		}
	}
	c.ids = append(c.ids, id)
}

func (c *deltaCol[T]) Value(row int) Value { return toValue(c.dict[c.ids[row]]) }

func (c *deltaCol[T]) Int64(row int) int64 {
	if v, ok := any(c.dict[c.ids[row]]).(int64); ok {
		return v
	}
	panic("column: Int64 on non-int64 delta column")
}

// Int64Block implements Int64Blocker for int64 delta columns; other element
// types panic, mirroring Int64.
func (c *deltaCol[T]) Int64Block(start int, dst []int64) {
	dict, ok := any(c.dict).([]int64)
	if !ok {
		panic("column: Int64Block on non-int64 delta column")
	}
	ids := c.ids[start : start+len(dst)]
	for i, id := range ids {
		dst[i] = dict[id]
	}
}

// Int64Gather implements Int64Gatherer for int64 delta columns.
func (c *deltaCol[T]) Int64Gather(rows []int32, dst []int64) {
	dict, ok := any(c.dict).([]int64)
	if !ok {
		panic("column: Int64Gather on non-int64 delta column")
	}
	for i, r := range rows {
		dst[i] = dict[c.ids[r]]
	}
}

// Float64Gather implements Float64Gatherer for numeric delta columns.
func (c *deltaCol[T]) Float64Gather(rows []int32, dst []float64) {
	switch dict := any(c.dict).(type) {
	case []float64:
		for i, r := range rows {
			dst[i] = dict[c.ids[r]]
		}
	case []int64:
		for i, r := range rows {
			dst[i] = float64(dict[c.ids[r]])
		}
	default:
		panic("column: Float64Gather on string delta column")
	}
}

// IDGather implements IDGatherer.
func (c *deltaCol[T]) IDGather(rows []int32, dst []uint32) {
	for i, r := range rows {
		dst[i] = c.ids[r]
	}
}

// Lookup implements Lookuper through the dictionary's hash index.
func (c *deltaCol[T]) Lookup(v Value) (uint32, bool) {
	if isNaN(v) {
		return c.nan - 1, c.nan != 0
	}
	id, ok := c.index[fromValue[T](v)]
	return id, ok
}

func isNaN(v Value) bool { return v.K == Float64 && math.IsNaN(v.F) }

func (c *deltaCol[T]) DictLen() int { return len(c.dict) }

func (c *deltaCol[T]) ID(row int) uint32 { return c.ids[row] }

func (c *deltaCol[T]) DictValue(id uint32) Value { return toValue(c.dict[id]) }

func (c *deltaCol[T]) MinMax() (Value, Value, bool) {
	if len(c.dict) == 0 {
		return Value{}, Value{}, false
	}
	return toValue(c.lo), toValue(c.hi), true
}

func (c *deltaCol[T]) MemBytes() uint64 {
	m := uint64(len(c.ids)) * 4
	for _, v := range c.dict {
		m += memOf(v) + 12 // dictionary entry + hash-index slot estimate
	}
	return m
}
