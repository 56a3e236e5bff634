package main

import (
	"math"
	"sort"
)

// oracle answers "what is the exact result" from the raw corpus counts:
// an inverted index per corpus party over every generated document.
type oracle struct {
	t     *topology
	index []map[uint64][]posting
}

type posting struct{ doc, count int }

func newOracle(t *topology) *oracle {
	o := &oracle{t: t, index: make([]map[uint64][]posting, t.cfg.dataParties)}
	for p := range o.index {
		o.index[p] = make(map[uint64][]posting)
		for d := 0; d < t.totalDocs(); d++ {
			t.bodyCounts(p, d, func(term uint64, count int) {
				o.index[p][term] = append(o.index[p][term], posting{d, count})
			})
		}
	}
	return o
}

// present says which documents are ingested when an op runs: the base
// documents plus the op's own spare range at one party.
type present struct{ base, party, lo, hi int }

func (p present) has(party, doc int) bool {
	return doc < p.base || (party == p.party && doc >= p.lo && doc < p.hi)
}

// searchCover is the share of the exact top-k documents (by summed raw
// counts of the query terms over every data party) that the answer
// holds. Documents tied with the k-th exact score count as covered.
func (o *oracle) searchCover(terms []uint64, hits []hit, k int, pr present) (float64, bool) {
	scores := make(map[[2]int]int)
	for p, ix := range o.index {
		for _, term := range terms {
			for _, post := range ix[term] {
				if pr.has(p, post.doc) {
					scores[[2]int{p, post.doc}] += post.count
				}
			}
		}
	}
	all := make([]int, 0, len(scores))
	for _, s := range scores {
		all = append(all, s)
	}
	got := make([]int, len(hits))
	for i, h := range hits {
		got[i] = scores[[2]int{h.party, h.doc}]
	}
	return coverRate(all, got, k)
}

// listCover is the paper's reverse top-K cover rate of one answer list
// against the exact top-K documents of that party for the term.
func (o *oracle) listCover(l rtkList, k int, pr present) (float64, bool) {
	counts := make(map[int]int)
	var all []int
	for _, post := range o.index[l.peer][l.term] {
		if pr.has(l.peer, post.doc) {
			counts[post.doc] = post.count
			all = append(all, post.count)
		}
	}
	got := make([]int, len(l.docs))
	for i, d := range l.docs {
		got[i] = counts[int(d)]
	}
	return coverRate(all, got, k)
}

// coverRate compares the exact scores of the returned documents (got)
// with every exact score (all): the truth is the k best of all, and a
// returned document is covered when its exact score reaches the k-th
// best. ok is false when nothing scores at all.
func coverRate(all, got []int, k int) (rate float64, ok bool) {
	sort.Sort(sort.Reverse(sort.IntSlice(all)))
	if len(all) < k {
		k = len(all)
	}
	if k == 0 {
		return 0, false
	}
	kth, covered := all[k-1], 0
	for _, s := range got {
		if s > 0 && s >= kth {
			covered++
		}
	}
	if covered > k {
		covered = k
	}
	return float64(covered) / float64(k), true
}

// ndcgAt is nDCG@k of a ranking's label sequence against the ideal label
// multiset, with gain 2^label - 1. ok is false when nothing is relevant.
func ndcgAt(ranked, ideal []int, k int) (float64, bool) {
	best := append([]int(nil), ideal...)
	sort.Sort(sort.Reverse(sort.IntSlice(best)))
	idcg := dcgAt(best, k)
	if idcg == 0 {
		return 0, false
	}
	return dcgAt(ranked, k) / idcg, true
}

func dcgAt(labels []int, k int) float64 {
	var dcg float64
	for i, l := range labels {
		if i == k {
			break
		}
		dcg += (math.Pow(2, float64(l)) - 1) / math.Log2(float64(i)+2)
	}
	return dcg
}

// rankingNDCG scores one returned ranking against the ground truth of
// its corpus query.
func (o *oracle) rankingNDCG(q qref, hits []hit) (float64, bool) {
	ranked := make([]int, len(hits))
	for i, h := range hits {
		ranked[i] = o.t.label(q, h.party, h.doc)
	}
	return ndcgAt(ranked, o.t.idealLabels(q), searchK)
}
