package index

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"csfltr/internal/textkit"
)

// bm25 is the conventional parameterization.
var bm25 = BM25Params{K1: 1.2, B: 0.75}

func tv(pairs ...int) textkit.TermVector {
	out := textkit.TermVector{}
	for i := 0; i+1 < len(pairs); i += 2 {
		out[textkit.TermID(pairs[i])] = pairs[i+1]
	}
	return out
}

func TestAddAndStats(t *testing.T) {
	ix := New()
	if err := ix.Add(0, tv(1, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(1, tv(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(0, tv(5, 1)); !errors.Is(err, ErrDuplicateDoc) {
		t.Fatal("duplicate doc should error")
	}
	if ix.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if got := ix.AvgDocLen(); got != 3 {
		t.Fatalf("AvgDocLen = %v, want 3", got)
	}
	if ix.DocFreq(2) != 2 || ix.DocFreq(1) != 1 || ix.DocFreq(9) != 0 {
		t.Fatal("DocFreq wrong")
	}
}

func TestSearchBM25Ordering(t *testing.T) {
	ix := New()
	// Doc 0 matches both terms, doc 1 one term heavily, doc 2 neither.
	if err := ix.Add(0, tv(1, 3, 2, 2, 9, 5)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(1, tv(1, 5, 8, 5)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(2, tv(8, 10)); err != nil {
		t.Fatal(err)
	}
	hits := ix.SearchBM25([]textkit.TermID{1, 2}, 0, bm25)
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Doc != 0 {
		t.Fatalf("doc 0 matches both terms and should rank first: %v", hits)
	}
	// Truncation.
	if got := ix.SearchBM25([]textkit.TermID{1, 2}, 1, bm25); len(got) != 1 {
		t.Fatalf("k=1 returned %d hits", len(got))
	}
	// No matches.
	if got := ix.SearchBM25([]textkit.TermID{42}, 5, bm25); len(got) != 0 {
		t.Fatalf("no-match query returned %v", got)
	}
	// Duplicate query terms must not double-score.
	once := ix.SearchBM25([]textkit.TermID{1}, 0, bm25)
	twice := ix.SearchBM25([]textkit.TermID{1, 1}, 0, bm25)
	for i := range once {
		if math.Abs(once[i].Score-twice[i].Score) > 1e-12 {
			t.Fatal("duplicate query terms double-scored")
		}
	}
}

// TestSearchBM25HandComputed checks one score against the formula:
// idf = ln(1 + (N-df+0.5)/(df+0.5)), tf·(k1+1) / (tf + k1·(1-b+b·dl/avgdl)).
func TestSearchBM25HandComputed(t *testing.T) {
	ix := New()
	if err := ix.Add(0, tv(1, 2, 2, 2)); err != nil { // dl 4
		t.Fatal(err)
	}
	if err := ix.Add(1, tv(2, 8)); err != nil { // dl 8
		t.Fatal(err)
	}
	hits := ix.SearchBM25([]textkit.TermID{1}, 0, bm25)
	// N=2, df=1, avgdl=6.
	idf := math.Log1p(1.5 / 1.5)
	want := idf * 2 * 2.2 / (2 + 1.2*(0.25+0.75*4.0/6))
	if len(hits) != 1 || hits[0].Doc != 0 || math.Abs(hits[0].Score-want) > 1e-12 {
		t.Fatalf("hits = %v, want doc 0 at %v", hits, want)
	}
}

// TestSearchBM25TieBreak: equal scores rank by ascending id, whatever
// order the documents were added in.
func TestSearchBM25TieBreak(t *testing.T) {
	ix := New()
	for _, id := range []int{3, 1, 2} {
		if err := ix.Add(id, tv(7, 5)); err != nil {
			t.Fatal(err)
		}
	}
	hits := ix.SearchBM25([]textkit.TermID{7}, 0, bm25)
	if len(hits) != 3 || hits[0].Doc != 1 || hits[1].Doc != 2 || hits[2].Doc != 3 {
		t.Fatalf("ties must break by ascending id: %v", hits)
	}
}

// TestSearchBM25MatchesReference (property): on random documents every
// match's score equals BM25 computed directly from the term vectors.
func TestSearchBM25MatchesReference(t *testing.T) {
	check := func(raw []uint8) bool {
		docs := make([]textkit.TermVector, 5)
		for i := range docs {
			docs[i] = textkit.TermVector{textkit.TermID(40 + i): 1}
		}
		for i, r := range raw {
			docs[i%5][textkit.TermID(r%32)]++
		}
		ix := New()
		total := 0
		for i, d := range docs {
			if err := ix.Add(i, d); err != nil {
				return false
			}
			for _, c := range d {
				total += c
			}
		}
		avg := float64(total) / float64(len(docs))
		query := []textkit.TermID{0, 1, 2, 3}
		want := map[int]float64{}
		for _, term := range query {
			df := 0
			for _, d := range docs {
				if d[term] > 0 {
					df++
				}
			}
			idf := math.Log1p((5 - float64(df) + 0.5) / (float64(df) + 0.5))
			for i, d := range docs {
				if tf := float64(d[term]); tf > 0 {
					dl := 0
					for _, c := range d {
						dl += c
					}
					want[i] += idf * tf * (bm25.K1 + 1) / (tf + bm25.K1*(1-bm25.B+bm25.B*float64(dl)/avg))
				}
			}
		}
		hits := ix.SearchBM25(query, 0, bm25)
		if len(hits) != len(want) {
			return false
		}
		for _, h := range hits {
			if math.Abs(h.Score-want[h.Doc]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSearchBM25(b *testing.B) {
	ix := New()
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < 5000; id++ {
		d := textkit.TermVector{}
		for j := 0; j < 100; j++ {
			d[textkit.TermID(rng.Intn(5000))]++
		}
		if err := ix.Add(id, d); err != nil {
			b.Fatal(err)
		}
	}
	terms := []textkit.TermID{10, 20, 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchBM25(terms, 100, bm25)
	}
}
