package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"

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
type AggTable struct {
	specs  []AggSpec
	groups map[string]*group
	// keyBuf is reused across groupFor calls so group lookup on existing
	// groups is allocation-free (string(keyBuf) map access does not
	// allocate).
	keyBuf []byte
}

type group struct {
	keys  []column.Value
	sums  []float64      // accumulator per spec (Sum/Avg: sum; Count: count)
	exts  []column.Value // Min/Max extremes, indexed per spec (unused slots zero)
	count int64          // COUNT(*) of the group
}

// NewAggTable returns an empty aggregation table for the given outputs.
func NewAggTable(specs []AggSpec) *AggTable {
	return &AggTable{specs: specs, groups: make(map[string]*group)}
}

// Specs returns the aggregate output specifications.
func (a *AggTable) Specs() []AggSpec { return a.specs }

// Groups reports the number of grouping combinations.
func (a *AggTable) Groups() int { return len(a.groups) }

// EncodeGroupKey renders a canonical, collision-free string for a grouping
// combination; summary-table implementations use it to index their group
// rows the same way AggTable does internally.
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

func (a *AggTable) groupFor(keys []column.Value) *group {
	a.keyBuf = appendKey(a.keyBuf[:0], keys)
	g, ok := a.groups[string(a.keyBuf)] // no allocation: string conversion in map index
	if !ok {
		g = &group{
			keys: append([]column.Value(nil), keys...),
			sums: make([]float64, len(a.specs)),
			exts: make([]column.Value, len(a.specs)),
		}
		a.groups[string(a.keyBuf)] = g
	}
	return g
}

// Add folds one source row into the table. vals holds one input value per
// spec (ignored for COUNT).
func (a *AggTable) Add(keys, vals []column.Value) {
	g := a.groupFor(keys)
	g.count++
	for i, s := range a.specs {
		switch s.Func {
		case Sum, Avg:
			g.sums[i] += vals[i].Float()
		case Count:
			g.sums[i]++
		case Min:
			if g.count == 1 || column.Less(vals[i], g.exts[i]) {
				g.exts[i] = vals[i]
			}
		case Max:
			if g.count == 1 || column.Less(g.exts[i], vals[i]) {
				g.exts[i] = vals[i]
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
func (a *AggTable) Merge(b *AggTable) {
	for _, gb := range b.groups {
		a.fold(gb.keys, 1, gb.count, gb.sums, gb.exts)
	}
}

// MergeSigned folds sign*b into a WITHOUT removing emptied groups. It
// accumulates inclusion-exclusion terms, whose intermediate states are not
// proper multisets: a group may pass through count zero with non-zero sums
// and must survive until every term has been applied. All aggregates must
// be self-maintainable when sign is negative.
func (a *AggTable) MergeSigned(b *AggTable, sign int) {
	for _, gb := range b.groups {
		a.fold(gb.keys, int64(sign), gb.count, gb.sums, gb.exts)
	}
}

// ApplySigned folds a signed compensation table into a. The result is a
// proper multiset again, so groups whose count reaches zero are removed
// (any residual float dust with them).
func (a *AggTable) ApplySigned(delta *AggTable) {
	for _, gd := range delta.groups {
		if gd.count == 0 && allZero(gd.sums) {
			continue
		}
		if a.fold(gd.keys, 1, gd.count, gd.sums, gd.exts).count == 0 {
			delete(a.groups, string(a.keyBuf))
		}
	}
}

// fold is the one table-to-table fold: it adds sign (±1) times one group's
// partial aggregate — count rows, sums holding the SUM/AVG sums and COUNT
// counts per spec, exts the MIN/MAX extremes per spec (other slots ignored)
// — into the group with the given keys, and returns that group, whose key
// a.keyBuf still holds. A group that already exists adds the partial's sum
// in one step: S + (a+b) rather than per-row Add's (S+a)+b; sign*x is exact,
// so a signed fold is bit-identical to an unsigned one of the negated sums.
// MIN/MAX extremes fold only with sign +1 and non-nil exts, since they
// cannot be subtracted; anything else panics.
func (a *AggTable) fold(keys []column.Value, sign, count int64, sums []float64, exts []column.Value) *group {
	g := a.groupFor(keys)
	first := g.count == 0
	g.count += sign * count
	for i, s := range a.specs {
		switch s.Func {
		case Sum, Avg, Count:
			g.sums[i] += float64(sign) * sums[i]
		case Min, Max:
			if sign < 0 || exts == nil {
				panic(fmt.Sprintf("query: signed fold of non-self-maintainable %s", s.Func))
			}
			if first || s.Func == Min && column.Less(exts[i], g.exts[i]) ||
				s.Func == Max && column.Less(g.exts[i], exts[i]) {
				g.exts[i] = exts[i]
			}
		}
	}
	return g
}

func allZero(fs []float64) bool {
	for _, f := range fs {
		if f != 0 {
			return false
		}
	}
	return true
}

// Clone deep-copies the table; the cache hands clones out so compensation
// never mutates the cached value.
func (a *AggTable) Clone() *AggTable {
	out := NewAggTable(a.specs)
	for ek, g := range a.groups {
		out.groups[ek] = &group{
			keys:  append([]column.Value(nil), g.keys...),
			sums:  append([]float64(nil), g.sums...),
			exts:  append([]column.Value(nil), g.exts...),
			count: g.count,
		}
	}
	return out
}

// MemBytes estimates the heap footprint of the table — the "size of
// aggregate" cache metric.
func (a *AggTable) MemBytes() uint64 {
	var m uint64
	for ek, g := range a.groups {
		m += uint64(len(ek)) + 16
		m += uint64(len(g.sums))*8 + uint64(len(g.exts))*16 + 8
		for _, k := range g.keys {
			m += 24
			if k.K == column.String {
				m += uint64(len(k.S))
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

// Rows finalizes the table into output rows, sorted by group key for
// deterministic results. AVG is rendered as sum/count; COUNT as int64.
func (a *AggTable) Rows() []Row {
	eks := make([]string, 0, len(a.groups))
	for ek := range a.groups {
		eks = append(eks, ek)
	}
	sort.Strings(eks)
	out := make([]Row, 0, len(eks))
	for _, ek := range eks {
		g := a.groups[ek]
		r := Row{Keys: g.keys, Count: g.count, Aggs: make([]column.Value, len(a.specs))}
		for i, s := range a.specs {
			switch s.Func {
			case Sum:
				r.Aggs[i] = column.FloatV(g.sums[i])
			case Count:
				r.Aggs[i] = column.IntV(int64(g.sums[i] + 0.5))
			case Avg:
				r.Aggs[i] = column.FloatV(g.sums[i] / float64(g.count))
			case Min, Max:
				r.Aggs[i] = g.exts[i]
			}
		}
		out = append(out, r)
	}
	return out
}

// MergedRows streams the union of a (unchanged) and a compensation table
// into finalized output rows without copying either: each group's
// accumulators are combined on the fly and groups whose combined COUNT(*)
// is zero are dropped. This is how a cache hit materializes its result —
// cached main-store groups merged with the delta compensation — without
// cloning the cached value. Rows are emitted in map order (unsorted).
func (a *AggTable) MergedRows(comp *AggTable) []Row {
	out := make([]Row, 0, len(a.groups)+len(comp.groups))
	// One slab for all output aggregate values instead of one slice per
	// row.
	aggSlab := make([]column.Value, 0, (len(a.groups)+len(comp.groups))*len(a.specs))
	emit := func(g *group, c *group) {
		count := g.count
		if c != nil {
			count += c.count
		}
		if count == 0 {
			return
		}
		if len(aggSlab)+len(a.specs) > cap(aggSlab) {
			aggSlab = make([]column.Value, 0, cap(aggSlab)+len(a.specs)*16)
		}
		aggSlab = aggSlab[:len(aggSlab)+len(a.specs)]
		r := Row{Keys: g.keys, Count: count, Aggs: aggSlab[len(aggSlab)-len(a.specs):]}
		for i, s := range a.specs {
			sum := g.sums[i]
			if c != nil {
				sum += c.sums[i]
			}
			switch s.Func {
			case Sum:
				r.Aggs[i] = column.FloatV(sum)
			case Count:
				r.Aggs[i] = column.IntV(int64(sum + 0.5))
			case Avg:
				r.Aggs[i] = column.FloatV(sum / float64(count))
			case Min, Max:
				ext := g.exts[i]
				if c != nil && ((s.Func == Min && column.Less(c.exts[i], ext)) ||
					(s.Func == Max && column.Less(ext, c.exts[i]))) {
					ext = c.exts[i]
				}
				r.Aggs[i] = ext
			}
		}
		out = append(out, r)
	}
	for ek, g := range a.groups {
		emit(g, comp.groups[ek])
	}
	for ek, c := range comp.groups {
		if _, shared := a.groups[ek]; !shared {
			emit(c, nil)
		}
	}
	return out
}

// Perturb deterministically corrupts one group — the fault-injection hook
// behind shadow-verification testing. The victim group is chosen by seed
// over the sorted group keys and one accumulator is bumped by a value large
// enough to clear Equal's tolerance (the count when no accumulator exists).
// It returns the corrupted group's encoded key, or "" for an empty table.
// Production code never calls this; tests and the difftest "corrupt" op do.
func (a *AggTable) Perturb(seed int64) string {
	if len(a.groups) == 0 {
		return ""
	}
	eks := make([]string, 0, len(a.groups))
	for ek := range a.groups {
		eks = append(eks, ek)
	}
	sort.Strings(eks)
	if seed < 0 {
		seed = -seed
	}
	ek := eks[seed%int64(len(eks))]
	g := a.groups[ek]
	// Bumping COUNT(*) always surfaces in finalized rows (Row.Count and
	// AVG), regardless of the spec mix; a Sum/Avg accumulator is bumped too
	// when one exists so SUM outputs shift as well.
	g.count++
	if len(g.sums) > 0 {
		g.sums[seed%int64(len(g.sums))] += 1
	}
	return ek
}

// Equal reports whether two tables hold the same groups with numerically
// close accumulators (tolerance for float summation order) and identical
// MIN/MAX extremes, which no summation order can change.
func (a *AggTable) Equal(b *AggTable) bool {
	if len(a.groups) != len(b.groups) {
		return false
	}
	const eps = 1e-6
	for ek, g := range a.groups {
		h, ok := b.groups[ek]
		if !ok || g.count != h.count {
			return false
		}
		for i, s := range a.specs {
			if s.Func == Min || s.Func == Max {
				if g.exts[i] != h.exts[i] {
					return false
				}
				continue
			}
			d := g.sums[i] - h.sums[i]
			scale := math.Max(1, math.Max(math.Abs(g.sums[i]), math.Abs(h.sums[i])))
			if math.Abs(d) > eps*scale {
				return false
			}
		}
	}
	return true
}
