package query

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"aggcache/internal/column"
)

// TestUnsortedRowsEqualsRows: UnsortedRows finalizes the same rows as Rows,
// in slot order — after merges, and after removals and revivals too.
func TestUnsortedRowsEqualsRows(t *testing.T) {
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
		a.Merge(b)
		neg := NewAggTable(sp)
		neg.MergeSigned(b, -1)
		c := a.Clone()
		c.ApplySigned(neg)
		c.Merge(b)
		for _, x := range []*AggTable{a, c} {
			got := x.UnsortedRows()
			sort.Slice(got, func(i, j int) bool { return EncodeGroupKey(got[i].Keys) < EncodeGroupKey(got[j].Keys) })
			if !reflect.DeepEqual(got, x.Rows()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUnsortedRowsSkipsRemovedGroups(t *testing.T) {
	sp := []AggSpec{{Func: Sum, Col: ColRef{Table: "T", Col: "x"}}}
	a, comp := NewAggTable(sp), NewAggTable(sp)
	k := []column.Value{column.IntV(1)}
	a.Add(k, []column.Value{column.FloatV(5)})
	a.Add([]column.Value{column.IntV(2)}, []column.Value{column.FloatV(7)})
	// The compensation holds a full negative of group 1.
	comp.AddGroup(k, []float64{-5}, -1)
	a.ApplySigned(comp)
	rows := a.UnsortedRows()
	if len(rows) != 1 || rows[0].Keys[0].I != 2 || a.Groups() != 1 {
		t.Fatalf("emptied group survived: %+v", rows)
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
	fres, _, err := ex.ExecuteAll(base, snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	gres, _, err := ex.ExecuteAll(withMax, snap, nil)
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
