package column

// Reader is the read-side of a column. Both main and delta columns satisfy
// it; the query engine never distinguishes the two except through the
// visibility vectors supplied by the transaction layer.
type Reader interface {
	// Kind reports the element type.
	Kind() Kind
	// Len reports the number of rows.
	Len() int
	// Value loads the row as a dynamically typed scalar.
	Value(row int) Value
	// Int64 loads the row from an Int64 column; other kinds panic.
	Int64(row int) int64
	// DictLen reports the dictionary cardinality.
	DictLen() int
	// ID returns the dictionary value ID of the row.
	ID(row int) uint32
	// DictValue returns the dictionary entry for a value ID.
	DictValue(id uint32) Value
	// MinMax returns the dictionary minimum and maximum. ok is false for an
	// empty column. Because dictionaries are append-only between merges, the
	// range may over-approximate the visible rows, which is safe for the
	// pruning prefilter.
	MinMax() (lo, hi Value, ok bool)
	// MemBytes estimates the heap footprint of the column in bytes.
	MemBytes() uint64
}

// Appender is a mutable delta column.
type Appender interface {
	Reader
	// Append adds a value as the new last row.
	Append(v Value)
}

// Int64Blocker is the optional block-decode fast path of Int64 columns:
// Int64Block materializes the contiguous rows [start, start+len(dst)) into
// dst with one virtual call instead of len(dst) Int64 calls, letting scan
// kernels evaluate predicates over 64-row blocks. Both main and delta int64
// columns implement it.
type Int64Blocker interface {
	Int64Block(start int, dst []int64)
}

// Int64Gatherer is the optional gather fast path of Int64 columns: it
// materializes an arbitrary row-id list into dst with one virtual call. The
// group-by kernel uses it to decode MIN/MAX inputs in bulk.
type Int64Gatherer interface {
	Int64Gather(rows []int32, dst []int64)
}

// IDGatherer is the bulk gather of dictionary value IDs: it materializes the
// IDs of an arbitrary row-id list into dst with one virtual call. Every
// column kind implements it, and the group-by kernel requires it of the
// columns it keys groups on.
type IDGatherer interface {
	IDGather(rows []int32, dst []uint32)
}

// Float64Gatherer is the bulk gather of numeric columns: it materializes the
// values of an arbitrary row-id list into dst as float64, the conversion
// Value.Float applies. Every column kind implements it, and the group-by
// kernel requires it of the columns it sums; on a string column it panics.
type Float64Gatherer interface {
	Float64Gather(rows []int32, dst []float64)
}

// NewDelta returns an empty write-optimized delta column of the given kind.
// Delta columns keep an unsorted dictionary with a hash index so inserts are
// O(1), mirroring a write-optimized delta store.
func NewDelta(kind Kind) Appender {
	switch kind {
	case Int64:
		return newDeltaCol[int64]()
	case Float64:
		return newDeltaCol[float64]()
	case String:
		return newDeltaCol[string]()
	}
	panic("column: unknown kind")
}

// MainBuilder accumulates values and freezes them into a read-optimized main
// column (sorted dictionary, bit-packed IDs). It is used by the delta-merge
// operation and by bulk loads.
type MainBuilder interface {
	Append(v Value)
	// Grow reserves room for n more values, so a caller that knows the row
	// count appends without regrowing.
	Grow(n int)
	// Build freezes the accumulated values. The builder must not be used
	// afterwards.
	Build() Reader
}

// NewMainBuilder returns a builder for a main column of the given kind.
func NewMainBuilder(kind Kind) MainBuilder {
	switch kind {
	case Int64:
		return &mainBuilder[int64]{}
	case Float64:
		return &mainBuilder[float64]{}
	case String:
		return &mainBuilder[string]{}
	}
	panic("column: unknown kind")
}
