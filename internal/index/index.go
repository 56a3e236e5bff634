// Package index is the exact-retrieval substrate of the reproduction: an
// in-memory inverted index with BM25 scoring. It plays two roles:
//
//   - ground truth: the synthetic corpus ranks every query against the
//     global cross-party collection with exact BM25 to derive the
//     relevance labels (package corpus), mirroring the paper's use of the
//     official MS MARCO top-100 ranking;
//   - baseline: it is what a party could compute *without* privacy
//     constraints, the reference point for every sketch-based estimate.
//
// The index is append-only and safe for concurrent reads after
// construction.
package index

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"csfltr/internal/textkit"
)

// ErrDuplicateDoc is returned when a document id is added twice.
var ErrDuplicateDoc = errors.New("index: duplicate document id")

// Posting is one inverted-list entry: a document and the term's count in
// it. Lists are in insertion order.
type Posting struct {
	Doc   int32
	Count int32
}

// Hit is one search result.
type Hit struct {
	Doc   int
	Score float64
}

// BM25Params are the scoring parameters.
type BM25Params struct {
	K1 float64
	B  float64
}

// Index is an inverted index over term-count vectors.
type Index struct {
	postings map[textkit.TermID][]Posting
	docLen   map[int]int
	totalLen int64
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[textkit.TermID][]Posting),
		docLen:   make(map[int]int),
	}
}

// Add indexes one document's term counts under docID. Documents may be
// added in any id order.
func (ix *Index) Add(docID int, tv textkit.TermVector) error {
	if _, dup := ix.docLen[docID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateDoc, docID)
	}
	length := 0
	for term, c := range tv {
		ix.postings[term] = append(ix.postings[term], Posting{Doc: int32(docID), Count: int32(c)})
		length += c
	}
	ix.docLen[docID] = length
	ix.totalLen += int64(length)
	return nil
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.docLen) }

// AvgDocLen returns the mean indexed document length.
func (ix *Index) AvgDocLen() float64 {
	if len(ix.docLen) == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(len(ix.docLen))
}

// DocFreq returns the number of documents containing term.
func (ix *Index) DocFreq(term textkit.TermID) int { return len(ix.postings[term]) }

// idf is the Robertson-Sparck-Jones IDF with +1 flooring.
func (ix *Index) idf(term textkit.TermID) float64 {
	df := float64(ix.DocFreq(term))
	n := float64(ix.NumDocs())
	v := (n - df + 0.5) / (df + 0.5)
	if v < 0 {
		v = 0
	}
	return math.Log1p(v)
}

// SearchBM25 ranks all documents matching any query term by BM25 and
// returns the top k (k <= 0 returns every match). Ties break by
// ascending document id for determinism.
func (ix *Index) SearchBM25(terms []textkit.TermID, k int, p BM25Params) []Hit {
	scores := make(map[int32]float64)
	avg := ix.AvgDocLen()
	seen := make(map[textkit.TermID]struct{}, len(terms))
	for _, term := range terms {
		if _, dup := seen[term]; dup {
			continue
		}
		seen[term] = struct{}{}
		list := ix.postings[term]
		if len(list) == 0 {
			continue
		}
		idf := ix.idf(term)
		for _, pt := range list {
			tf := float64(pt.Count)
			dl := float64(ix.docLen[int(pt.Doc)])
			denom := tf + p.K1*(1-p.B+p.B*dl/avg)
			scores[pt.Doc] += idf * tf * (p.K1 + 1) / denom
		}
	}
	hits := make([]Hit, 0, len(scores))
	for doc, s := range scores {
		hits = append(hits, Hit{Doc: int(doc), Score: s})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc < hits[j].Doc
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}
