package core

import (
	"testing"

	"csfltr/internal/corpus"
	"csfltr/internal/dp"
)

// corpusDocs returns the n documents of a one-party generated corpus at
// the scorecard's shape — an 8 000-term Zipf vocabulary, 120-token bodies
// and 8-token titles — as the term counts of field ("body" or "title").
func corpusDocs(tb testing.TB, n int, field string) []DocCounts {
	tb.Helper()
	cc := corpus.DefaultConfig()
	cc.NumParties, cc.DocsPerParty, cc.DocLen, cc.TitleLen, cc.QueriesPerParty = 1, n, 120, 8, 1
	c, err := corpus.Generate(cc)
	if err != nil {
		tb.Fatal(err)
	}
	docs := make([]DocCounts, len(c.Parties[0].Docs))
	for i, d := range c.Parties[0].Docs {
		tv := d.BodyCounts()
		if field == "title" {
			tv = d.TitleCounts()
		}
		counts := make(map[uint64]int64, len(tv))
		for term, n := range tv {
			counts[uint64(term)] = int64(n)
		}
		docs[i] = DocCounts{DocID: d.ID, Counts: counts}
	}
	return docs
}

// BenchmarkOwnerAddDocumentsEviction exercises the eviction-heavy regime
// of the benchmark's party shape (cap alpha*K = 250, 1 200 documents),
// where cells fill early and most entries contend with the floor:
//
//   - synthetic: one batch of 1 200 documents of 120 tokens over a
//     500-term vocabulary, dense in every row;
//   - corpus: the scorecard's 1 200 bodies and then its 1 200 titles, one
//     batch each — sparse rows, and title cells that hold mostly zeros;
//   - 8 into full: 8 bodies into an owner already holding the other 1 200,
//     whose cells were all just read — what core.add_us_per_doc measures.
//     The 8 leave again off the clock;
//   - one at a time past αK: the 1 200 bodies into a fresh owner, one
//     AddDocument each and no read between, as Fig. 4 loads its corpus —
//     every cell passes the cap a fifth of the way in.
func BenchmarkOwnerAddDocumentsEviction(b *testing.B) {
	p := DefaultParams()
	p.K = 50 // HeapCap = Alpha*K = 250, well under the 1200-doc batch
	b.Run("synthetic", func(b *testing.B) {
		docs := bulkBatch(1200, 120, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o, err := NewOwner(p, 42, dp.Disabled())
			if err != nil {
				b.Fatal(err)
			}
			if err := o.AddDocuments(docs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("corpus", func(b *testing.B) {
		bodies, titles := corpusDocs(b, 1200, "body"), corpusDocs(b, 1200, "title")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, docs := range [][]DocCounts{bodies, titles} {
				o, err := NewOwner(p, 42, dp.Disabled())
				if err != nil {
					b.Fatal(err)
				}
				if err := o.AddDocuments(docs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("8 into full", func(b *testing.B) {
		docs := corpusDocs(b, 1208, "body")
		o, err := NewOwner(p, 42, dp.Disabled())
		if err != nil {
			b.Fatal(err)
		}
		if err := o.AddDocuments(docs[:1200]); err != nil {
			b.Fatal(err)
		}
		spare := docs[1200:]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := o.AddDocuments(spare); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for _, d := range spare {
				if err := o.RemoveDocument(d.DocID); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(spare)), "us/doc")
	})
	b.Run("one at a time past αK", func(b *testing.B) {
		docs := corpusDocs(b, 1200, "body")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o, err := NewOwner(p, 42, dp.Disabled())
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range docs {
				if err := o.AddDocument(d.DocID, d.Counts); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(docs)), "us/doc")
	})
}
