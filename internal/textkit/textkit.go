// Package textkit is the text substrate of the CS-F-LTR reproduction: a
// tokenizer, an interning vocabulary with stable term IDs, term-count
// vectors, and the document/query model shared by every higher layer.
//
// Terms are identified by TermID (a dense uint64) so that the hash
// families in package hashutil can consume them directly; the string form
// is only needed at corpus-ingestion time.
package textkit

import (
	"strings"
	"sync"
	"unicode"
)

// TermID is the stable numeric identity of an interned term. IDs are
// assigned densely from 0 in interning order.
type TermID uint64

// Vocabulary interns terms to dense TermIDs. It is safe for concurrent
// use.
type Vocabulary struct {
	mu     sync.RWMutex
	byTerm map[string]TermID
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{byTerm: make(map[string]TermID)}
}

// Intern returns the TermID for term, assigning a fresh one if unseen.
func (v *Vocabulary) Intern(term string) TermID {
	v.mu.RLock()
	id, ok := v.byTerm[term]
	v.mu.RUnlock()
	if ok {
		return id
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.byTerm[term]; ok {
		return id
	}
	id = TermID(len(v.byTerm))
	v.byTerm[term] = id
	return id
}

// InternAll interns every term of a token slice, preserving order.
func (v *Vocabulary) InternAll(tokens []string) []TermID {
	out := make([]TermID, len(tokens))
	for i, tok := range tokens {
		out[i] = v.Intern(tok)
	}
	return out
}

// Lookup returns the TermID of term without interning it.
func (v *Vocabulary) Lookup(term string) (TermID, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.byTerm[term]
	return id, ok
}

// Tokenize lowercases text and splits it into maximal runs of letters and
// digits; everything else is a separator. It is deliberately simple — the
// paper's pipeline needs bags of terms, not linguistic analysis.
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// TermVector maps a term to its count within one document or query field.
// Raw term frequencies are exactly what the CS-F-LTR protocol exists to
// keep inside the silo (PAPER.md §IV): only sketched, DP-noised values
// derived from them may cross the federation boundary.
//
//csfltr:private
type TermVector map[TermID]int

// CountTerms builds a TermVector from a term sequence. The map is sized
// for half the tokens, the distinct terms of a field that repeats some: a
// 120-token body has ~80, which that size already holds, so the map is
// allocated once. Documents keep their counts, so a hint of every token
// (twice the table) or none (four smaller tables grown through) costs
// memory or set-up time.
func CountTerms(ids []TermID) TermVector {
	tv := make(TermVector, len(ids)/2)
	for _, id := range ids {
		tv[id]++
	}
	return tv
}

// Total returns the total number of term occurrences (the field length).
func (tv TermVector) Total() int {
	n := 0
	for _, c := range tv {
		n += c
	}
	return n
}

// Unique returns the number of distinct terms.
func (tv TermVector) Unique() int { return len(tv) }

// Document is one retrievable unit: a title and a body, both term-ID
// sequences. ID is local to the owning party. Topic records the
// generating topic for synthetic corpora (-1 when unknown); it is ground
// truth only and never visible to the algorithms under test.
//
// A document's raw term sequences are silo-private: Title and Body
// must never be marshalled, logged, or sent across the federation
// transport. ID and Topic are local bookkeeping (the paper's Definition
// 2 treats document identity and lengths as non-private), so they may
// appear in error messages and diagnostics.
type Document struct {
	ID    int
	Topic int
	//csfltr:private
	Title []TermID
	//csfltr:private
	Body []TermID

	titleCounts TermVector
	bodyCounts  TermVector
	countsOnce  sync.Once
}

// NewDocument builds a document and leaves count vectors to be computed
// lazily on first use.
func NewDocument(id, topic int, title, body []TermID) *Document {
	return &Document{ID: id, Topic: topic, Title: title, Body: body}
}

func (d *Document) initCounts() {
	d.countsOnce.Do(func() {
		d.titleCounts = CountTerms(d.Title)
		d.bodyCounts = CountTerms(d.Body)
	})
}

// TitleCounts returns the cached title term-count vector.
func (d *Document) TitleCounts() TermVector {
	d.initCounts()
	return d.titleCounts
}

// BodyCounts returns the cached body term-count vector.
func (d *Document) BodyCounts() TermVector {
	d.initCounts()
	return d.bodyCounts
}

// Len returns the body length in terms (the paper's document length L;
// document lengths are non-private per Definition 2).
func (d *Document) Len() int { return len(d.Body) }

// Query is a search query: an ordered multiset of term IDs. ID is local
// to the owning party; Topic is synthetic ground truth (-1 if unknown).
type Query struct {
	ID    int
	Topic int
	Terms []TermID
}

// NewQuery builds a query.
func NewQuery(id, topic int, terms []TermID) *Query {
	return &Query{ID: id, Topic: topic, Terms: terms}
}

// UniqueTerms returns the distinct terms of the query in first-occurrence
// order; feature extraction iterates these.
func (q *Query) UniqueTerms() []TermID {
	seen := make(map[TermID]struct{}, len(q.Terms))
	out := make([]TermID, 0, len(q.Terms))
	for _, t := range q.Terms {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
