package query

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"aggcache/internal/column"
)

func rowsToMap(rows []Row) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rows {
		vals := make([]float64, 0, len(r.Aggs)+1)
		for _, a := range r.Aggs {
			vals = append(vals, a.Float())
		}
		vals = append(vals, float64(r.Count))
		out[EncodeGroupKey(r.Keys)] = vals
	}
	return out
}

func TestMergedRowsEqualsMergeThenRows(t *testing.T) {
	sp := specs()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewAggTable(sp), NewAggTable(sp)
		for i := 0; i < 100; i++ {
			k := []column.Value{column.IntV(rng.Int63n(8))}
			v := []column.Value{column.FloatV(float64(rng.Intn(50))), {}, column.FloatV(float64(rng.Intn(50)))}
			if rng.Intn(2) == 0 {
				a.Add(k, v)
			} else {
				b.Add(k, v)
			}
		}
		merged := rowsToMap(a.MergedRows(b))
		ref := a.Clone()
		ref.Merge(b)
		want := rowsToMap(ref.Rows())
		if len(merged) != len(want) {
			return false
		}
		for k, vals := range want {
			got, ok := merged[k]
			if !ok {
				return false
			}
			for i := range vals {
				d := got[i] - vals[i]
				if d > 1e-9 || d < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMergedRowsDropsEmptiedGroups(t *testing.T) {
	sp := []AggSpec{{Func: Sum, Col: ColRef{Table: "T", Col: "x"}}}
	a, comp := NewAggTable(sp), NewAggTable(sp)
	k := []column.Value{column.IntV(1)}
	a.Add(k, []column.Value{column.FloatV(5)})
	// The compensation holds a full negative of the group.
	comp.AddGroup(k, []float64{-5}, -1)
	if rows := a.MergedRows(comp); len(rows) != 0 {
		t.Fatalf("emptied group survived: %+v", rows)
	}
}

func TestMergedRowsCompOnlyGroups(t *testing.T) {
	sp := []AggSpec{{Func: Sum, Col: ColRef{Table: "T", Col: "x"}}}
	a, comp := NewAggTable(sp), NewAggTable(sp)
	comp.Add([]column.Value{column.IntV(9)}, []column.Value{column.FloatV(2)})
	rows := a.MergedRows(comp)
	if len(rows) != 1 || rows[0].Keys[0].I != 9 || rows[0].Aggs[0].F != 2 {
		t.Fatalf("comp-only group wrong: %+v", rows)
	}
}

func TestAddGroupPanicsOnMinMax(t *testing.T) {
	a := NewAggTable([]AggSpec{{Func: Min, Col: ColRef{Table: "T", Col: "x"}}})
	defer func() {
		if recover() == nil {
			t.Fatal("AddGroup on Min must panic")
		}
	}()
	a.AddGroup([]column.Value{column.IntV(1)}, []float64{1}, 1)
}

// TestIntKeyAggregatesIgnoreExtraMax: grouping on one int64 key, the SUM,
// COUNT and AVG results and the group counts are the same whether or not
// the query also computes a MAX column. Both queries run the one group-by
// kernel; the extra extreme must not disturb the other accumulators.
func TestIntKeyAggregatesIgnoreExtraMax(t *testing.T) {
	db := buildERP(t)
	seedERP(t, db)
	ex := &Executor{DB: db}

	// One int64 group key with SUM, COUNT and AVG.
	base := &Query{
		Tables: []string{"Header", "Item"},
		Joins: []JoinEdge{
			{Left: ColRef{Table: "Header", Col: "HeaderID"}, Right: ColRef{Table: "Item", Col: "HeaderID"}},
		},
		GroupBy: []ColRef{{Table: "Item", Col: "CategoryID"}},
		Aggs: []AggSpec{
			{Func: Sum, Col: ColRef{Table: "Item", Col: "Price"}},
			{Func: Count},
			{Func: Avg, Col: ColRef{Table: "Item", Col: "Price"}},
		},
	}
	// The same query with an extra MAX column.
	withMax := &Query{
		Tables:  base.Tables,
		Joins:   base.Joins,
		GroupBy: []ColRef{{Table: "Item", Col: "CategoryID"}},
		Aggs: append(append([]AggSpec(nil), base.Aggs...),
			AggSpec{Func: Max, Col: ColRef{Table: "Item", Col: "Price"}}),
	}
	snap := db.Txns().ReadSnapshot()
	fres, _, err := ex.ExecuteAll(base, snap)
	if err != nil {
		t.Fatal(err)
	}
	gres, _, err := ex.ExecuteAll(withMax, snap)
	if err != nil {
		t.Fatal(err)
	}
	frows, grows := fres.Rows(), gres.Rows()
	if len(frows) != len(grows) {
		t.Fatalf("group counts differ: %d vs %d", len(frows), len(grows))
	}
	sort.Slice(frows, func(i, j int) bool { return frows[i].Keys[0].I < frows[j].Keys[0].I })
	sort.Slice(grows, func(i, j int) bool { return grows[i].Keys[0].I < grows[j].Keys[0].I })
	for i := range frows {
		if frows[i].Keys[0].I != grows[i].Keys[0].I || frows[i].Count != grows[i].Count {
			t.Fatalf("row %d differs: %+v vs %+v", i, frows[i], grows[i])
		}
		for a := 0; a < 3; a++ {
			d := frows[i].Aggs[a].Float() - grows[i].Aggs[a].Float()
			if d > 1e-9 || d < -1e-9 {
				t.Fatalf("agg %d differs at row %d: %v vs %v", a, i, frows[i].Aggs[a], grows[i].Aggs[a])
			}
		}
	}
}

func TestMergedRowsMinMax(t *testing.T) {
	sp := []AggSpec{
		{Func: Min, Col: ColRef{Table: "T", Col: "x"}},
		{Func: Max, Col: ColRef{Table: "T", Col: "x"}},
	}
	a, comp := NewAggTable(sp), NewAggTable(sp)
	k := []column.Value{column.IntV(1)}
	a.Add(k, []column.Value{column.FloatV(5), column.FloatV(5)})
	comp.Add(k, []column.Value{column.FloatV(2), column.FloatV(9)})
	rows := a.MergedRows(comp)
	if len(rows) != 1 || rows[0].Aggs[0].F != 2 || rows[0].Aggs[1].F != 9 {
		t.Fatalf("merged min/max = %+v", rows)
	}
}

func TestMergeSignedAndApplySigned(t *testing.T) {
	sp := []AggSpec{{Func: Sum, Col: ColRef{Table: "T", Col: "x"}}}
	k := []column.Value{column.IntV(1)}
	val := NewAggTable(sp)
	val.Add(k, []column.Value{column.FloatV(10)})
	val.Add(k, []column.Value{column.FloatV(20)})

	// A scratch table passing through zero count with non-zero sums must
	// survive until ApplySigned.
	scratch := NewAggTable(sp)
	t1 := NewAggTable(sp)
	t1.Add(k, []column.Value{column.FloatV(10)})
	t2 := NewAggTable(sp)
	t2.Add(k, []column.Value{column.FloatV(20)})
	scratch.MergeSigned(t1, -1) // count -1, sum -10
	scratch.MergeSigned(t2, +1) // count 0, sum +10: improper intermediate
	if scratch.Groups() != 1 {
		t.Fatal("scratch dropped an improper-intermediate group")
	}
	scratch.MergeSigned(t2, -1) // count -1, sum -10
	scratch.MergeSigned(t2, -1) // count -2, sum -30
	val.ApplySigned(scratch)
	rows := val.Rows()
	// val had count 2 sum 30; scratch nets count -2 sum -30: group removed.
	if len(rows) != 0 {
		t.Fatalf("ApplySigned left %+v, want empty", rows)
	}
}

func TestMergeSignedPanicsOnNegativeMinMax(t *testing.T) {
	sp := []AggSpec{{Func: Min, Col: ColRef{Table: "T", Col: "x"}}}
	a, b := NewAggTable(sp), NewAggTable(sp)
	b.Add([]column.Value{column.IntV(1)}, []column.Value{column.FloatV(1)})
	defer func() {
		if recover() == nil {
			t.Fatal("MergeSigned(-1) on Min must panic")
		}
	}()
	a.MergeSigned(b, -1)
}
