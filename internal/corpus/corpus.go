// Package corpus generates the synthetic cross-partitioned evaluation
// corpus of the CS-F-LTR reproduction and computes the ground-truth
// relevance labels used for training and evaluation.
//
// The paper evaluates on sampled subsets of MS MARCO: 4 parties, each
// with 200 queries and 36,400 documents of roughly 1000 terms, with the
// official top-100 ranking as ground truth (top-10 labelled "highly
// relevant" = 2, top-11..100 "relevant" = 1, everything else 0). MS MARCO
// cannot be redistributed with this repository, so — per the substitution
// note in DESIGN.md — this package synthesizes a corpus with the same
// statistical structure the algorithms consume:
//
//   - Zipfian term frequencies (the explicit assumption behind the
//     paper's Theorems 2-4);
//   - topical clustering: each document and query belongs to one topic,
//     making a small subset of documents relevant to a query and the
//     rest irrelevant, with relevance crossing party boundaries;
//   - ground-truth top-100 per query computed by exact BM25 over the
//     *global* (cross-party) corpus, then mapped to labels 2/1/0 exactly
//     as in Section VI-A.
//
// Party data quality can be skewed (label noise) to reproduce the
// Table-I situation where parties A/B hold better data than C/D.
package corpus

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"csfltr/internal/index"
	"csfltr/internal/textkit"
	"csfltr/internal/zipf"
)

// Errors returned by this package.
var (
	ErrBadConfig = errors.New("corpus: invalid configuration")
)

// Config controls corpus synthesis. The zero value is not usable; start
// from DefaultConfig or PaperConfig.
type Config struct {
	Seed            int64   // PRNG seed; everything is deterministic given it
	NumParties      int     // N in the paper (4)
	QueriesPerParty int     // 200 in the paper
	DocsPerParty    int     // 36,400 in the paper
	VocabSize       int     // synthetic vocabulary size
	NumTopics       int     // topical clusters
	DocLen          int     // body terms per document (~1000 in the paper)
	TitleLen        int     // title terms per document
	QueryMinTerms   int     // min distinct terms per query (M in Def. 2)
	QueryMaxTerms   int     // max distinct terms per query
	TopicMix        float64 // fraction of body terms drawn from the topic distribution
	TitleTopicMix   float64 // fraction of title terms drawn from the topic distribution
	ZipfExponent    float64 // background term-frequency skew
	SalientPerTopic int     // size of each topic's salient-term set
	HighCut         int     // ground-truth rank cutoff for label 2 (10)
	RelevantCut     int     // ground-truth rank cutoff for label 1 (100)
	// LabelNoise[i] is the probability that a local label of party i is
	// corrupted (replaced by a random smaller label); nil means clean for
	// every party. Length must be 0 or NumParties.
	LabelNoise []float64
	// BM25K1 and BM25B are the ground-truth scorer parameters.
	BM25K1 float64
	BM25B  float64
}

// DefaultConfig returns a laptop-scale configuration preserving the
// paper's shape: 4 parties, topical Zipfian documents, 2/1/0 labels.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		NumParties:      4,
		QueriesPerParty: 30,
		DocsPerParty:    600,
		VocabSize:       8000,
		NumTopics:       24,
		DocLen:          220,
		TitleLen:        8,
		QueryMinTerms:   2,
		QueryMaxTerms:   5,
		TopicMix:        0.35,
		TitleTopicMix:   0.8,
		ZipfExponent:    1.05,
		SalientPerTopic: 60,
		HighCut:         10,
		RelevantCut:     100,
		BM25K1:          1.2,
		BM25B:           0.75,
	}
}

// PaperConfig returns the full paper-scale configuration (4 parties x 200
// queries x 36,400 documents of ~1000 terms). Generating it takes minutes
// and several GB; use it for headline benchmarks only.
func PaperConfig() Config {
	c := DefaultConfig()
	c.QueriesPerParty = 200
	c.DocsPerParty = 36400
	c.VocabSize = 60000
	c.NumTopics = 400
	c.DocLen = 1000
	c.SalientPerTopic = 80
	return c
}

// TestConfig returns a tiny configuration for unit tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.QueriesPerParty = 8
	c.DocsPerParty = 120
	c.VocabSize = 2000
	c.NumTopics = 8
	c.DocLen = 80
	c.SalientPerTopic = 30
	return c
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.NumParties <= 0:
		return fmt.Errorf("%w: NumParties=%d", ErrBadConfig, c.NumParties)
	case c.QueriesPerParty <= 0:
		return fmt.Errorf("%w: QueriesPerParty=%d", ErrBadConfig, c.QueriesPerParty)
	case c.DocsPerParty <= 0:
		return fmt.Errorf("%w: DocsPerParty=%d", ErrBadConfig, c.DocsPerParty)
	case c.VocabSize < 100:
		return fmt.Errorf("%w: VocabSize=%d (need >= 100)", ErrBadConfig, c.VocabSize)
	case c.NumTopics <= 0:
		return fmt.Errorf("%w: NumTopics=%d", ErrBadConfig, c.NumTopics)
	case c.DocLen <= 0 || c.TitleLen < 0:
		return fmt.Errorf("%w: DocLen=%d TitleLen=%d", ErrBadConfig, c.DocLen, c.TitleLen)
	case c.QueryMinTerms <= 0 || c.QueryMaxTerms < c.QueryMinTerms:
		return fmt.Errorf("%w: query term range [%d,%d]", ErrBadConfig, c.QueryMinTerms, c.QueryMaxTerms)
	case c.TopicMix < 0 || c.TopicMix > 1 || c.TitleTopicMix < 0 || c.TitleTopicMix > 1:
		return fmt.Errorf("%w: topic mixes must be in [0,1]", ErrBadConfig)
	case c.ZipfExponent <= 0:
		return fmt.Errorf("%w: ZipfExponent=%v", ErrBadConfig, c.ZipfExponent)
	case c.SalientPerTopic <= 0 || c.SalientPerTopic < c.QueryMaxTerms:
		return fmt.Errorf("%w: SalientPerTopic=%d must be >= QueryMaxTerms", ErrBadConfig, c.SalientPerTopic)
	case c.HighCut <= 0 || c.RelevantCut < c.HighCut:
		return fmt.Errorf("%w: cuts high=%d relevant=%d", ErrBadConfig, c.HighCut, c.RelevantCut)
	case len(c.LabelNoise) != 0 && len(c.LabelNoise) != c.NumParties:
		return fmt.Errorf("%w: LabelNoise length %d, want 0 or %d", ErrBadConfig, len(c.LabelNoise), c.NumParties)
	case c.BM25K1 <= 0 || c.BM25B < 0 || c.BM25B > 1:
		return fmt.Errorf("%w: BM25 params k1=%v b=%v", ErrBadConfig, c.BM25K1, c.BM25B)
	}
	for i, p := range c.LabelNoise {
		if p < 0 || p > 1 {
			return fmt.Errorf("%w: LabelNoise[%d]=%v", ErrBadConfig, i, p)
		}
	}
	return nil
}

// DocRef identifies a document globally: the owning party and the
// document's local index.
type DocRef struct {
	Party int
	Doc   int
}

// QueryRef identifies a query globally.
type QueryRef struct {
	Party int
	Query int
}

// Party holds one silo's private raw data.
type Party struct {
	Index   int
	Docs    []*textkit.Document
	Queries []*textkit.Query
}

// ScoredDoc is one entry of a ground-truth ranking.
type ScoredDoc struct {
	Ref   DocRef
	Score float64
	Label int
}

// Corpus is a fully generated cross-partitioned dataset with ground
// truth. Treat it as immutable after Generate.
type Corpus struct {
	Cfg     Config
	Parties []*Party

	// topics[t] is the salient-term set of topic t, ordered by topic rank.
	topics [][]textkit.TermID

	// truth[queryRef] is the ground-truth top-RelevantCut ranking.
	truth map[QueryRef][]ScoredDoc
	// labels[queryRef][docRef] caches nonzero ground-truth labels.
	labels map[QueryRef]map[DocRef]int
	// noisyLocal[party][queryIdx][docIdx] overrides for locally observed
	// labels under label noise (only entries that differ are stored).
	noisyLocal map[QueryRef]map[DocRef]int
}

// Generate synthesizes a corpus from cfg. The same cfg always yields an
// identical corpus.
func Generate(cfg Config) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Corpus{
		Cfg:        cfg,
		truth:      make(map[QueryRef][]ScoredDoc),
		labels:     make(map[QueryRef]map[DocRef]int),
		noisyLocal: make(map[QueryRef]map[DocRef]int),
	}
	background, err := zipf.New(cfg.VocabSize, cfg.ZipfExponent)
	if err != nil {
		return nil, err
	}
	topicDist, err := zipf.New(cfg.SalientPerTopic, 1.0)
	if err != nil {
		return nil, err
	}

	// Topic salient sets: distinct terms sampled outside the very head of
	// the background distribution (the head behaves like stopwords).
	head := 50
	if head >= cfg.VocabSize/2 {
		head = cfg.VocabSize / 10
	}
	c.topics = make([][]textkit.TermID, cfg.NumTopics)
	for t := range c.topics {
		seen := make(map[textkit.TermID]struct{}, cfg.SalientPerTopic)
		set := make([]textkit.TermID, 0, cfg.SalientPerTopic)
		for len(set) < cfg.SalientPerTopic {
			id := textkit.TermID(head + rng.Intn(cfg.VocabSize-head))
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			set = append(set, id)
		}
		c.topics[t] = set
	}

	// Documents and queries, cross-partitioned over parties.
	c.Parties = make([]*Party, cfg.NumParties)
	for p := range c.Parties {
		party := &Party{Index: p}
		for d := 0; d < cfg.DocsPerParty; d++ {
			topic := rng.Intn(cfg.NumTopics)
			body := make([]textkit.TermID, cfg.DocLen)
			for i := range body {
				if rng.Float64() < cfg.TopicMix {
					body[i] = c.topics[topic][topicDist.Sample(rng)-1]
				} else {
					body[i] = textkit.TermID(background.Sample(rng) - 1)
				}
			}
			title := make([]textkit.TermID, cfg.TitleLen)
			for i := range title {
				if rng.Float64() < cfg.TitleTopicMix {
					title[i] = c.topics[topic][topicDist.Sample(rng)-1]
				} else {
					title[i] = textkit.TermID(background.Sample(rng) - 1)
				}
			}
			party.Docs = append(party.Docs, textkit.NewDocument(d, topic, title, body))
		}
		for q := 0; q < cfg.QueriesPerParty; q++ {
			topic := rng.Intn(cfg.NumTopics)
			k := cfg.QueryMinTerms + rng.Intn(cfg.QueryMaxTerms-cfg.QueryMinTerms+1)
			terms := make([]textkit.TermID, 0, k)
			seen := make(map[textkit.TermID]struct{}, k)
			for len(terms) < k {
				t := c.topics[topic][topicDist.Sample(rng)-1]
				if _, dup := seen[t]; dup {
					continue
				}
				seen[t] = struct{}{}
				terms = append(terms, t)
			}
			party.Queries = append(party.Queries, textkit.NewQuery(q, topic, terms))
		}
		c.Parties[p] = party
	}

	c.computeGroundTruth()
	c.applyLabelNoise(rng)
	// Labelling built and dropped a BM25 index of the whole corpus, and a
	// caller that regenerates (a sweep, the benchmark's repeated set-up)
	// has just dropped the federation it built over the last one: collect
	// both here, once, so the load that follows starts from the corpus
	// alone. Left to the pacer, the dead federation survives until the new
	// one is most of the way up, and the process's peak RSS is wherever
	// between 1.7x and 1.95x of the old heap that cycle happens to start.
	runtime.GC()
	return c, nil
}

// computeGroundTruth ranks every query against the global corpus by exact
// BM25 over document bodies (package index) and assigns 2/1/0 labels by
// rank cutoffs. Documents get dense global ids in (party, doc) order, so
// the index's ascending-id tie-break reproduces the (party, doc)
// tie-break deterministically.
func (c *Corpus) computeGroundTruth() {
	cfg := c.Cfg
	ix := index.New()
	for _, p := range c.Parties {
		for _, d := range p.Docs {
			// Errors are impossible here: ids are dense and unique by
			// construction.
			if err := ix.Add(p.Index*cfg.DocsPerParty+d.ID, d.BodyCounts()); err != nil {
				panic(err)
			}
		}
	}
	params := index.BM25Params{K1: cfg.BM25K1, B: cfg.BM25B}
	for _, p := range c.Parties {
		for _, q := range p.Queries {
			qref := QueryRef{Party: p.Index, Query: q.ID}
			hits := ix.SearchBM25(q.UniqueTerms(), cfg.RelevantCut, params)
			ranked := make([]ScoredDoc, len(hits))
			lbl := make(map[DocRef]int, len(hits))
			for i, h := range hits {
				ref := DocRef{Party: h.Doc / cfg.DocsPerParty, Doc: h.Doc % cfg.DocsPerParty}
				label := 1
				if i < cfg.HighCut {
					label = 2
				}
				ranked[i] = ScoredDoc{Ref: ref, Score: h.Score, Label: label}
				lbl[ref] = label
			}
			c.truth[qref] = ranked
			c.labels[qref] = lbl
		}
	}
}

// applyLabelNoise corrupts a fraction of each party's *locally observed*
// labels (ground truth itself stays intact): with probability
// LabelNoise[p], a local (query, doc) label is replaced by a strictly
// smaller one. This models parties with poorly curated judgments.
func (c *Corpus) applyLabelNoise(rng *rand.Rand) {
	if len(c.Cfg.LabelNoise) == 0 {
		return
	}
	for _, p := range c.Parties {
		noise := c.Cfg.LabelNoise[p.Index]
		if noise <= 0 {
			continue
		}
		for _, q := range p.Queries {
			qref := QueryRef{Party: p.Index, Query: q.ID}
			// Iterate the rank-ordered ground truth (not the label map):
			// map iteration order would make the corrupted set — and
			// therefore every downstream experiment — nondeterministic.
			for _, sd := range c.truth[qref] {
				if sd.Ref.Party != p.Index {
					continue // only locally observed pairs can be corrupted
				}
				if rng.Float64() < noise {
					m := c.noisyLocal[qref]
					if m == nil {
						m = make(map[DocRef]int)
						c.noisyLocal[qref] = m
					}
					m[sd.Ref] = rng.Intn(sd.Label) // strictly smaller label
				}
			}
		}
	}
}

// Label returns the true ground-truth label of (q, d): 2, 1 or 0.
func (c *Corpus) Label(q QueryRef, d DocRef) int {
	return c.labels[q][d]
}

// LocalLabel returns the label as *observed by the query's owner* for a
// local document pair — ground truth possibly corrupted by the party's
// label noise. For cross-party pairs it falls back to ground truth (used
// only by evaluation, never by training).
func (c *Corpus) LocalLabel(q QueryRef, d DocRef) int {
	if m, ok := c.noisyLocal[q]; ok {
		if v, ok := m[d]; ok {
			return v
		}
	}
	return c.labels[q][d]
}

// GroundTruth returns the ground-truth ranking (top RelevantCut) of q.
func (c *Corpus) GroundTruth(q QueryRef) []ScoredDoc { return c.truth[q] }

// Topics returns the salient-term sets (read-only; do not modify).
func (c *Corpus) Topics() [][]textkit.TermID { return c.topics }

// TotalDocs returns the number of documents across all parties.
func (c *Corpus) TotalDocs() int {
	n := 0
	for _, p := range c.Parties {
		n += len(p.Docs)
	}
	return n
}

// TotalQueries returns the number of queries across all parties.
func (c *Corpus) TotalQueries() int {
	n := 0
	for _, p := range c.Parties {
		n += len(p.Queries)
	}
	return n
}

// AverageDocLen returns the mean body length over the global corpus.
func (c *Corpus) AverageDocLen() float64 {
	n, sum := 0, 0
	for _, p := range c.Parties {
		for _, d := range p.Docs {
			sum += d.Len()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
