// Package core implements the paper's primary contribution: the aggregate
// cache, a dynamic materialized-aggregate engine for the main-delta
// architecture (paper Sec. 2). Cached aggregates are computed only on main
// stores; query results are made consistent at execution time by
//
//   - main compensation — the main rows invalidated since the entry was
//     cached are read from each main's invalidation log, between the
//     entry's watermark and the read's snapshot, and subtracted from the
//     cached value (Sec. 2.2), and
//   - delta compensation — the subjoin combinations involving at least one
//     delta store are evaluated and unioned with the cached value
//     (Sec. 2.3).
//
// Delta compensation for join queries is where object-awareness pays off:
// the manager supports four execution strategies, from uncached evaluation
// through matching-dependency-based dynamic join pruning with predicate
// pushdown (Sec. 5, evaluated in Sec. 6.4).
//
// Cache entries are maintained incrementally during the delta-merge
// operation via a table.MergeHook, so merges never invalidate entries
// wholesale (Sec. 5.2).
package core

import "fmt"

// Strategy selects how a query is executed against the main-delta stores.
type Strategy uint8

const (
	// Uncached evaluates all subjoin combinations with no cache
	// (paper Sec. 2.3.1).
	Uncached Strategy = iota
	// CachedNoPruning uses the aggregate cache and evaluates every
	// delta-compensation subjoin (Sec. 2.3.2).
	CachedNoPruning
	// CachedEmptyDelta additionally skips subjoins referencing an empty
	// store (the "empty delta pruning" baseline of Sec. 6.4).
	CachedEmptyDelta
	// CachedFullPruning additionally applies matching-dependency dynamic
	// join pruning and, for surviving mixed subjoins, join predicate
	// pushdown (Sec. 5.1, 5.3).
	CachedFullPruning
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Uncached:
		return "uncached"
	case CachedNoPruning:
		return "cached-no-pruning"
	case CachedEmptyDelta:
		return "cached-empty-delta-pruning"
	case CachedFullPruning:
		return "cached-full-pruning"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// Strategies lists all execution strategies in the order the paper's
// figures plot them.
func Strategies() []Strategy {
	return []Strategy{Uncached, CachedNoPruning, CachedEmptyDelta, CachedFullPruning}
}
