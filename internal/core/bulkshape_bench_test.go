package core

import (
	"testing"

	"csfltr/internal/dp"
)

// BenchmarkOwnerAddDocumentsEviction exercises the eviction-heavy regime
// of the benchmark's party shape (heap cap 250, 1200 docs), where cells
// fill early and most pushes contend with the cached floor key.
func BenchmarkOwnerAddDocumentsEviction(b *testing.B) {
	p := DefaultParams()
	p.K = 50 // HeapCap = Alpha*K = 250, well under the 1200-doc batch
	docs := bulkBatch(1200, 120, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o, err := NewOwner(p, 42, dp.Disabled())
		if err != nil {
			b.Fatal(err)
		}
		if err := o.AddDocuments(docs, 1); err != nil {
			b.Fatal(err)
		}
	}
}
