// Package column implements the columnar storage primitives of a main-delta
// in-memory column store: immutable main columns with sorted dictionaries and
// bit-packed value IDs, and append-optimized delta columns with unsorted
// dictionaries. Dictionary min/max is exposed so the join-pruning prefilter
// (paper Eq. 5) can be evaluated without scanning the data.
package column

import (
	"cmp"
	"fmt"
	"strconv"
)

// Kind enumerates the supported column value types.
type Kind uint8

const (
	// Int64 columns hold signed 64-bit integers (keys, tids, quantities).
	Int64 Kind = iota
	// Float64 columns hold IEEE-754 doubles (amounts, prices).
	Float64
	// String columns hold UTF-8 strings (names, languages, categories).
	String
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a dynamically typed scalar. It is comparable, and equal values
// of one kind are what the join kernel matches (through dictionary value
// IDs) and the aggregation groups on.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// IntV wraps an int64 as a Value.
func IntV(v int64) Value { return Value{K: Int64, I: v} }

// FloatV wraps a float64 as a Value.
func FloatV(v float64) Value { return Value{K: Float64, F: v} }

// StrV wraps a string as a Value.
func StrV(v string) Value { return Value{K: String, S: v} }

// Compare orders two values of the same kind: -1, 0, or +1. The order is
// the main dictionaries' (cmp.Compare): a float NaN sorts before every
// other value and equals every other NaN, so predicates, MIN/MAX and the
// dictionary bounds read by pruning agree on it.
// Comparing values of different kinds panics; the schema layer guarantees
// homogeneous columns.
func Compare(a, b Value) int {
	if a.K != b.K {
		panic(fmt.Sprintf("column: comparing %v with %v", a.K, b.K))
	}
	switch a.K {
	case Int64:
		return cmp.Compare(a.I, b.I)
	case Float64:
		return cmp.Compare(a.F, b.F)
	}
	return cmp.Compare(a.S, b.S)
}

// Less reports a < b for same-kind values.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// String renders the payload for debugging and result tables.
func (v Value) String() string {
	switch v.K {
	case Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case String:
		return v.S
	}
	return "?"
}

// Float returns the numeric payload as float64 for aggregation; string
// values panic.
func (v Value) Float() float64 {
	switch v.K {
	case Int64:
		return float64(v.I)
	case Float64:
		return v.F
	}
	panic("column: Float on string value")
}

// elem constrains the Go types a column can be instantiated with.
type elem interface {
	~int64 | ~float64 | ~string
}

func kindOf[T elem]() Kind {
	var z T
	switch any(z).(type) {
	case int64:
		return Int64
	case float64:
		return Float64
	case string:
		return String
	}
	panic("column: unsupported element type")
}

func toValue[T elem](v T) Value {
	switch x := any(v).(type) {
	case int64:
		return IntV(x)
	case float64:
		return FloatV(x)
	case string:
		return StrV(x)
	}
	panic("column: unsupported element type")
}

func fromValue[T elem](v Value) T {
	var out any
	switch any(*new(T)).(type) {
	case int64:
		if v.K != Int64 {
			panic(fmt.Sprintf("column: %v value in int64 column", v.K))
		}
		out = v.I
	case float64:
		if v.K != Float64 {
			panic(fmt.Sprintf("column: %v value in float64 column", v.K))
		}
		out = v.F
	case string:
		if v.K != String {
			panic(fmt.Sprintf("column: %v value in string column", v.K))
		}
		out = v.S
	}
	return out.(T)
}

func memOf[T elem](v T) uint64 {
	if s, ok := any(v).(string); ok {
		return 16 + uint64(len(s)) // header + payload
	}
	return 8
}
