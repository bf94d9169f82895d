package md_test

import (
	"testing"

	"aggcache/internal/workload"
)

// BenchmarkFillChildTIDs times insert-time MD enforcement (paper Sec. 6.3)
// for one ERP item row of header 1: per MD whose child is Item, one
// primary-key lookup in the parent and one tid read.
func BenchmarkFillChildTIDs(b *testing.B) {
	erp, err := workload.BuildERP(workload.DefaultERPConfig())
	if err != nil {
		b.Fatal(err)
	}
	row := erp.NewItemRow(1)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := erp.Reg.FillChildTIDs(workload.TItem, row); err != nil {
			b.Fatal(err)
		}
	}
}
