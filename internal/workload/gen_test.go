package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/txn"
)

// TestGeneratorMatchesFmtRendering pins the generator's precomputed string
// domains to the fmt rendering they replace: for a few seeds, every header
// and item row equals one built with fmt.Sprintf from an identically seeded
// random stream, drawn in the same order.
func TestGeneratorMatchesFmtRendering(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultERPConfig()
		cfg.Seed = seed
		g := newERPGen(cfg)
		rng := rand.New(rand.NewSource(seed))
		item := int64(1)
		for _, hid := range []int64{1, 9, 10, 99_999, 123_456_789, 999_999_999, 1_000_000_000, 42_000_000_001} {
			want := []column.Value{
				column.IntV(hid), column.IntV(2012),
				column.StrV(regions[int(hid)%len(regions)]),
				column.StrV(fmt.Sprintf("DOC-%09d", hid)),
				column.StrV(fmt.Sprintf("user-%03d", rng.Intn(500))),
				column.StrV(companyCodes[int(hid)%len(companyCodes)]),
				column.IntV(7),
			}
			compareRow(t, "header", g.headerRow(hid, 2012, 7), want)
			for range 20 {
				catID := 1 + rng.Int63n(int64(cfg.Categories))
				want := []column.Value{
					column.IntV(item), column.IntV(hid), column.IntV(catID),
					column.FloatV(float64(1 + rng.Intn(1000))),
					column.IntV(1 + rng.Int63n(50)),
					column.StrV(fmt.Sprintf("MAT-%05d", rng.Intn(5000))),
					column.StrV(fmt.Sprintf("P%02d", rng.Intn(20))),
					column.StrV(fmt.Sprintf("CC-%04d", rng.Intn(300))),
					column.StrV(fmt.Sprintf("ACC-%05d", rng.Intn(1000))),
					column.StrV(units[rng.Intn(len(units))]),
					column.IntV(7), column.IntV(8), column.IntV(0),
				}
				compareRow(t, "item", g.itemRow(hid, txn.TID(7), txn.TID(8)), want)
				item++
			}
		}
	}
}

func compareRow(t *testing.T, what string, got, want []column.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s row has %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s row value %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}
