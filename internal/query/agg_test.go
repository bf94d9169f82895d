package query

import (
	"math"
	"testing"

	"aggcache/internal/column"
)

func specs() []AggSpec {
	return []AggSpec{
		{Func: Sum, Col: ColRef{Table: "I", Col: "Price"}, As: "Total"},
		{Func: Count, As: "N"},
		{Func: Avg, Col: ColRef{Table: "I", Col: "Price"}, As: "AvgP"},
	}
}

func TestAggTableAddAndRows(t *testing.T) {
	a := NewAggTable(specs())
	k1 := []column.Value{column.StrV("food")}
	k2 := []column.Value{column.StrV("tools")}
	a.Add(k1, []column.Value{column.FloatV(10), {}, column.FloatV(10)})
	a.Add(k1, []column.Value{column.FloatV(30), {}, column.FloatV(30)})
	a.Add(k2, []column.Value{column.FloatV(5), {}, column.FloatV(5)})
	if a.Groups() != 2 {
		t.Fatalf("Groups = %d, want 2", a.Groups())
	}
	rows := a.Rows()
	if len(rows) != 2 {
		t.Fatalf("Rows = %d, want 2", len(rows))
	}
	// Sorted deterministically; find the food group.
	var food *Row
	for i := range rows {
		if rows[i].Keys[0].S == "food" {
			food = &rows[i]
		}
	}
	if food == nil {
		t.Fatal("food group missing")
	}
	if food.Aggs[0].F != 40 || food.Aggs[1].I != 2 || food.Aggs[2].F != 20 || food.Count != 2 {
		t.Fatalf("food aggs = %v count=%d", food.Aggs, food.Count)
	}
}

func TestAggTableApplySignedDeletesEmptyGroup(t *testing.T) {
	a := NewAggTable(specs())
	k := []column.Value{column.IntV(7)}
	v := []column.Value{column.FloatV(10), {}, column.FloatV(10)}
	a.Add(k, v)
	neg := NewAggTable(specs())
	neg.Add(k, v)
	comp := NewAggTable(specs())
	comp.MergeSigned(neg, -1)
	a.ApplySigned(comp)
	if a.Groups() != 0 {
		t.Fatalf("Groups = %d after full subtraction, want 0", a.Groups())
	}
}

func TestAggTableMergeAndSignedSubtract(t *testing.T) {
	a := NewAggTable(specs())
	b := NewAggTable(specs())
	k := []column.Value{column.IntV(1)}
	a.Add(k, []column.Value{column.FloatV(1), {}, column.FloatV(1)})
	b.Add(k, []column.Value{column.FloatV(2), {}, column.FloatV(2)})
	b.Add([]column.Value{column.IntV(2)}, []column.Value{column.FloatV(9), {}, column.FloatV(9)})
	a.Merge(b)
	if a.Groups() != 2 {
		t.Fatalf("Groups = %d, want 2", a.Groups())
	}
	rows := a.Rows()
	if rows[0].Keys[0].I != 1 || rows[0].Aggs[0].F != 3 || rows[0].Count != 2 {
		t.Fatalf("merged group 1 = %+v", rows[0])
	}
	comp := NewAggTable(specs())
	comp.MergeSigned(b, -1)
	a.ApplySigned(comp)
	rows = a.Rows()
	if a.Groups() != 1 || rows[0].Aggs[0].F != 1 || rows[0].Count != 1 {
		t.Fatalf("after subtracting b: %+v", rows)
	}
}

// TestMergeEqualsMergeSignedPlus checks that Merge and MergeSigned(+1) leave
// bit-identical tables: both are the one signed fold with sign +1.
func TestMergeEqualsMergeSignedPlus(t *testing.T) {
	sp := append(specs(),
		AggSpec{Func: Min, Col: ColRef{Table: "I", Col: "Price"}},
		AggSpec{Func: Max, Col: ColRef{Table: "I", Col: "Price"}})
	fill := func(seed float64) *AggTable {
		a := NewAggTable(sp)
		for i := 0; i < 40; i++ {
			v := column.FloatV(seed*float64(i%7) + 0.1*float64(i))
			a.Add([]column.Value{column.IntV(int64(i % 5))}, []column.Value{v, {}, v, v, v})
		}
		return a
	}
	x, y := fill(1.3), fill(1.3)
	b := fill(-2.7)
	x.Merge(b)
	y.MergeSigned(b, +1)
	if len(x.groups) != len(y.groups) {
		t.Fatalf("groups %d vs %d", len(x.groups), len(y.groups))
	}
	for ek, g := range x.groups {
		h := y.groups[ek]
		if h == nil || g.count != h.count {
			t.Fatalf("group %q: %+v vs %+v", ek, g, h)
		}
		for i := range g.sums {
			if math.Float64bits(g.sums[i]) != math.Float64bits(h.sums[i]) || g.exts[i] != h.exts[i] {
				t.Fatalf("group %q spec %d: %v/%v vs %v/%v", ek, i, g.sums[i], g.exts[i], h.sums[i], h.exts[i])
			}
		}
	}
}

func TestAggTableClone(t *testing.T) {
	a := NewAggTable(specs())
	k := []column.Value{column.IntV(1)}
	a.Add(k, []column.Value{column.FloatV(1), {}, column.FloatV(1)})
	c := a.Clone()
	c.Add(k, []column.Value{column.FloatV(5), {}, column.FloatV(5)})
	if a.Rows()[0].Aggs[0].F != 1 {
		t.Fatal("Clone shares state with original")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not Equal to original")
	}
	if a.Equal(c) {
		t.Fatal("diverged clone still Equal")
	}
}

func TestAggTableMinMax(t *testing.T) {
	sp := []AggSpec{
		{Func: Min, Col: ColRef{Table: "I", Col: "P"}},
		{Func: Max, Col: ColRef{Table: "I", Col: "P"}},
	}
	a := NewAggTable(sp)
	k := []column.Value{column.IntV(1)}
	a.Add(k, []column.Value{column.FloatV(5), column.FloatV(5)})
	a.Add(k, []column.Value{column.FloatV(2), column.FloatV(2)})
	a.Add(k, []column.Value{column.FloatV(9), column.FloatV(9)})
	r := a.Rows()[0]
	if r.Aggs[0].F != 2 || r.Aggs[1].F != 9 {
		t.Fatalf("min/max = %v", r.Aggs)
	}
	b := NewAggTable(sp)
	b.Add(k, []column.Value{column.FloatV(1), column.FloatV(11)})
	a.Merge(b)
	r = a.Rows()[0]
	if r.Aggs[0].F != 1 || r.Aggs[1].F != 11 {
		t.Fatalf("after merge min/max = %v", r.Aggs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative merge on Min must panic")
		}
	}()
	a.MergeSigned(b, -1)
}

func TestEncodeKeyCollisionFree(t *testing.T) {
	pairs := [][2][]column.Value{
		{{column.StrV("ab"), column.StrV("c")}, {column.StrV("a"), column.StrV("bc")}},
		{{column.StrV("1")}, {column.IntV(1)}},
		{{column.StrV("")}, {}},
		{{column.IntV(12), column.IntV(3)}, {column.IntV(1), column.IntV(23)}},
	}
	for i, p := range pairs {
		if encodeKey(p[0]) == encodeKey(p[1]) {
			t.Errorf("pair %d collides: %q", i, encodeKey(p[0]))
		}
	}
	if encodeKey([]column.Value{column.IntV(5)}) != encodeKey([]column.Value{column.IntV(5)}) {
		t.Fatal("equal keys must encode equally")
	}
}

func TestAggTableMemBytes(t *testing.T) {
	a := NewAggTable(specs())
	if a.MemBytes() != 0 {
		t.Fatal("empty table must report zero payload")
	}
	a.Add([]column.Value{column.StrV("grp")}, []column.Value{column.FloatV(1), {}, column.FloatV(1)})
	if a.MemBytes() == 0 {
		t.Fatal("MemBytes = 0 with a group present")
	}
}
