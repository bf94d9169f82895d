package core

import (
	"fmt"

	"aggcache/internal/query"
	"aggcache/internal/vec"
)

// joinMainCompensate removes the contribution of invalidated main rows from
// an entry without rebuilding it — for joins, the negative-delta extension
// the paper sketches as future work (Sec. 8). A single-table entry is the
// degenerate case: one term of sign −1, a scan restricted to the
// invalidated rows.
//
// Writing each table's old visible set as Old_t and its invalidated set as
// R_t, the new all-main join expands by inclusion-exclusion:
//
//	⋈_t (Old_t − R_t) = Σ_{S ⊆ T} (−1)^{|S|} ⋈_{t∈S} R_t ⋈_{t∉S} Old_t
//
// The S = ∅ term is the cached value, so the compensation applies every
// other term: subtract for odd |S|, add back for even |S|. Terms involving
// a table with no invalidations vanish, so the subset enumeration runs only
// over the tables that actually saw diffs — typically one.
//
// target receives the signed compensation (the entry value itself, or a
// served clone while the entry is frozen during an online merge); persist
// additionally advances the entry's visibility baselines and must be false
// when target is not e.Value.
func (m *Manager) joinMainCompensate(e *Entry, diffs []storeDiff, st *query.Stats, target *query.AggTable, persist bool) error {
	// Group the per-store diffs by table.
	diffByRef := make(map[query.StoreRef]*storeDiff, len(diffs))
	tableHasDiff := map[string]bool{}
	for i := range diffs {
		diffByRef[diffs[i].ref] = &diffs[i]
		tableHasDiff[diffs[i].ref.Table] = true
	}
	var diffTables []string
	for _, t := range e.Query.Tables {
		if tableHasDiff[t] {
			diffTables = append(diffTables, t)
		}
	}
	if len(diffTables) == 0 {
		return nil
	}
	combos := mainCombos(m.db, e.Query)
	snap := m.db.Txns().ReadSnapshot() // unused by fully restricted scans

	// Accumulate all inclusion-exclusion terms into one signed scratch
	// table first: intermediate states are not proper multisets, so no
	// group may be dropped until every term is in.
	scratch := query.NewAggTable(e.Query.Aggs)
	for mask := 1; mask < 1<<len(diffTables); mask++ {
		inS := map[string]bool{}
		bits := 0
		for i, t := range diffTables {
			if mask&(1<<i) != 0 {
				inS[t] = true
				bits++
			}
		}
		// The term's restricted subjoins are independent; they run through
		// the executor's worker pool and merge in combo order. Only the
		// inclusion-exclusion fold across terms stays sequential, since a
		// term's sign depends on its subset.
		term := query.NewAggTable(e.Query.Aggs)
		jobs := make([]query.ComboJob, 0, len(combos))
		for _, combo := range combos {
			restrict := make([]*vec.BitSet, len(combo))
			skip := false
			for i, ref := range combo {
				var set *vec.BitSet
				if inS[ref.Table] {
					if d := diffByRef[ref]; d != nil {
						set = d.diff
					}
				} else {
					set = e.MainVis[ref]
				}
				if set == nil || set.Count() == 0 {
					skip = true
					break
				}
				restrict[i] = set
			}
			if skip {
				continue
			}
			jobs = append(jobs, query.ComboJob{Combo: combo, Terms: [][]*vec.BitSet{restrict}})
		}
		if err := m.exec.ExecuteJobs(e.Query, jobs, snap, term, st, nil); err != nil {
			return fmt.Errorf("core: negative-delta term failed: %w", err)
		}
		sign := 1
		if bits%2 == 1 {
			sign = -1
		}
		scratch.MergeSigned(term, sign)
	}
	target.ApplySigned(scratch)
	if persist {
		for _, d := range diffs {
			e.MainVis[d.ref] = d.cur
		}
	}
	return nil
}
