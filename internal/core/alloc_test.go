package core

import (
	"testing"

	"aggcache/internal/query"
)

// TestHitAllocsIndependentOfGroups guards the cache-hit path: with an empty
// delta, serving a hit allocates the same at 20 and at 2 000 cached groups
// — the served clone shares the cached arrays, it allocates nothing per
// group.
func TestHitAllocsIndependentOfGroups(t *testing.T) {
	q := &query.Query{
		Tables:  []string{"Item"},
		GroupBy: []query.ColRef{{Table: "Item", Col: "HeaderID"}},
		Aggs: []query.AggSpec{
			{Func: query.Sum, Col: query.ColRef{Table: "Item", Col: "Price"}, As: "Total"},
			{Func: query.Count, As: "N"},
		},
	}
	var allocs [2]float64
	for i, groups := range []int{20, 2000} {
		e := newEnv(t, Config{Workers: 1})
		for h := 0; h < groups; h++ {
			e.insertObject(t, 2013, float64(h), 1.5)
		}
		if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
			t.Fatal(err)
		}
		res, _, err := e.mgr.Execute(q, CachedFullPruning)
		if err != nil || res.Groups() != groups {
			t.Fatalf("%d groups: warm-up got %v groups, err %v", groups, res.Groups(), err)
		}
		allocs[i] = testing.AllocsPerRun(50, func() {
			if _, info, err := e.mgr.Execute(q, CachedFullPruning); err != nil || !info.CacheHit {
				t.Fatalf("not a cache hit: %+v, %v", info, err)
			}
		})
	}
	if allocs[1] > allocs[0] {
		t.Fatalf("a cache hit allocates %v times at 20 groups but %v at 2000", allocs[0], allocs[1])
	}
}
