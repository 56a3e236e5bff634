// Package experiments contains one runner per table and figure of the
// CS-F-LTR paper's evaluation (Section VI), plus the shared pipeline that
// turns a synthetic corpus into a federation, training data (local and
// cross-party augmented) and an external test set.
//
// Runners return plain result structs; rendering helpers turn them into
// the same rows/series the paper reports (see render.go). Absolute
// numbers differ from the paper — the substrate is a simulator, not the
// authors' testbed — but the shapes (who wins, by what factor, where the
// curves bend) are the reproduction targets; EXPERIMENTS.md records both.
package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"csfltr/internal/core"
	"csfltr/internal/corpus"
	"csfltr/internal/features"
	"csfltr/internal/federation"
	"csfltr/internal/ltr"
	"csfltr/internal/telemetry"
	"csfltr/internal/textkit"
)

// Errors returned by this package.
var ErrBadConfig = errors.New("experiments: invalid configuration")

// AugLabelMode selects how cross-party augmented instances are labelled.
// The paper only says the augmented data carries "positive labels"; the
// modes make the choice explicit and ablatable.
type AugLabelMode int

const (
	// AugLabelFlat labels every augmented instance "relevant" (1) — the
	// conservative reading, and the default: the reverse top-K evidence
	// (high estimated term count) justifies relevance, but not the
	// distinction between relevant and *highly* relevant.
	AugLabelFlat AugLabelMode = iota
	// AugLabelRank grades by retrieval rank: the HighCut best-scored
	// retrieved documents per query get label 2, the rest 1 — mirroring
	// the ground-truth labelling rule on estimated scores.
	AugLabelRank
	// AugLabelOracle uses ground-truth labels (diagnostic only).
	AugLabelOracle
)

// PipelineConfig configures the end-to-end CS-F-LTR pipeline.
type PipelineConfig struct {
	Corpus   corpus.Config
	Params   core.Params
	SGD      ltr.SGDConfig
	Features features.Params
	// Rounds of round-robin distributed SGD for federated training.
	Rounds int
	// TrainFrac is the fraction of each party's queries used for
	// training; the rest form the external test set.
	TrainFrac float64
	// AugPerQuery is the number of cross-party documents kept per query
	// during augmentation (the paper keeps on the order of K).
	AugPerQuery int
	// NegPerQuery is the number of sampled irrelevant local documents
	// per training query.
	NegPerQuery int
	// LocalLabelFrac is the fraction of a party's local ground-truth
	// positives it actually holds labels for. The paper's premise is
	// that "locally generated data (especially positive instances) are
	// insufficient"; this knob makes local supervision scarce so
	// cross-party augmentation has signal to add. 1 = full coverage.
	LocalLabelFrac float64
	// TestNegPerQuery is the number of sampled negatives per test query.
	TestNegPerQuery int
	// OracleAugment replaces the sketch/DP feature estimates of augmented
	// instances with exact cross-party counts. Diagnostic ablation only:
	// it quantifies how much of CS-F-LTR's quality gap is caused by
	// estimation noise in the privacy-preserving features (retrieval and
	// labelling still run through the real protocol).
	OracleAugment bool
	// AugLabel selects how augmented instances are labelled.
	AugLabel AugLabelMode
	// Seed drives sampling decisions outside the corpus generator.
	Seed int64
	// Metrics, when non-nil, receives the federation's telemetry (relay
	// counters, stage latency histograms) instead of a private registry —
	// for binaries exposing a -debug-addr endpoint.
	Metrics *telemetry.Registry `json:"-"`
}

// DefaultPipelineConfig returns a laptop-scale configuration with the
// paper's protocol defaults.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Corpus:          corpus.DefaultConfig(),
		Params:          core.DefaultParams(),
		SGD:             ltr.DefaultSGDConfig(),
		Features:        features.DefaultParams(),
		Rounds:          15,
		TrainFrac:       0.7,
		AugPerQuery:     20,
		NegPerQuery:     40,
		LocalLabelFrac:  0.35,
		TestNegPerQuery: 60,
		Seed:            1,
	}
}

// TestPipelineConfig returns a tiny configuration for unit tests.
func TestPipelineConfig() PipelineConfig {
	cfg := DefaultPipelineConfig()
	cfg.Corpus = corpus.TestConfig()
	cfg.Params.W = 128
	cfg.Params.Z = 12
	cfg.Params.Z1 = 6
	cfg.Params.K = 20
	cfg.Params.Epsilon = 0
	cfg.Rounds = 8
	cfg.AugPerQuery = 10
	cfg.NegPerQuery = 10
	cfg.TestNegPerQuery = 15
	cfg.LocalLabelFrac = 0.6
	return cfg
}

// Validate reports whether the configuration is usable.
func (c PipelineConfig) Validate() error {
	if err := c.Corpus.Validate(); err != nil {
		return err
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.SGD.Validate(); err != nil {
		return err
	}
	if err := c.Features.Validate(); err != nil {
		return err
	}
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("%w: Rounds=%d", ErrBadConfig, c.Rounds)
	case c.TrainFrac <= 0 || c.TrainFrac >= 1:
		return fmt.Errorf("%w: TrainFrac=%v", ErrBadConfig, c.TrainFrac)
	case c.AugPerQuery < 0:
		return fmt.Errorf("%w: AugPerQuery=%d", ErrBadConfig, c.AugPerQuery)
	case c.NegPerQuery < 0 || c.TestNegPerQuery < 0:
		return fmt.Errorf("%w: negatives must be non-negative", ErrBadConfig)
	case c.LocalLabelFrac <= 0 || c.LocalLabelFrac > 1:
		return fmt.Errorf("%w: LocalLabelFrac=%v", ErrBadConfig, c.LocalLabelFrac)
	}
	return nil
}

// Pipeline is a fully initialized experiment environment: corpus,
// federation with ingested sketches, collection statistics and the
// train/test query split.
type Pipeline struct {
	Cfg    PipelineConfig
	Corpus *corpus.Corpus
	Fed    *federation.Federation
	Stats  *features.Stats

	trainQ [][]*textkit.Query // per party
	testQ  [][]*textkit.Query
	rng    *rand.Rand
}

// NewPipeline generates the corpus, runs federation setup, ingests every
// document into its party's sketches and splits queries.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := corpus.Generate(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	names := make([]string, cfg.Corpus.NumParties)
	for i := range names {
		names[i] = partyName(i)
	}
	fed, err := federation.NewDeterministic(names, cfg.Params, uint64(cfg.Seed)+99, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		fed.Server.SetRegistry(cfg.Metrics)
	}
	docSets := make([][]*textkit.Document, len(c.Parties))
	for i, party := range c.Parties {
		docSets[i] = party.Docs
		// Bulk load: term counting on Params.Parallelism workers (0 =
		// GOMAXPROCS), both fields at once; the resulting sketch state is
		// identical to a sequential IngestAll.
		if err := fed.Parties[i].IngestAllParallel(party.Docs, 0); err != nil {
			return nil, err
		}
	}
	p := &Pipeline{
		Cfg:    cfg,
		Corpus: c,
		Fed:    fed,
		Stats:  features.ComputeStats(docSets...),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, party := range c.Parties {
		cut := int(cfg.TrainFrac * float64(len(party.Queries)))
		if cut < 1 {
			cut = 1
		}
		if cut >= len(party.Queries) {
			cut = len(party.Queries) - 1
		}
		if cut < 1 { // single-query parties train on everything
			cut = len(party.Queries)
		}
		p.trainQ = append(p.trainQ, party.Queries[:cut])
		p.testQ = append(p.testQ, party.Queries[cut:])
	}
	return p, nil
}

// partyName maps a party index to its display name (A, B, C, ...).
func partyName(i int) string {
	if i < 26 {
		return string(rune('A' + i))
	}
	return fmt.Sprintf("P%d", i)
}

// queryKey builds the metric grouping key for a query.
func queryKey(party, query int) string { return fmt.Sprintf("p%d.q%d", party, query) }

// exactInstance builds one training/evaluation instance with exact
// (lossless) features.
func (p *Pipeline) exactInstance(q *textkit.Query, qParty int, ref corpus.DocRef, label int) ltr.Instance {
	doc := p.Corpus.Parties[ref.Party].Docs[ref.Doc]
	vec := features.Vector(q.UniqueTerms(),
		features.ExactField(doc.BodyCounts()),
		features.ExactField(doc.TitleCounts()),
		p.Stats, p.Cfg.Features)
	return ltr.Instance{Features: vec, Label: float64(label), QueryKey: queryKey(qParty, q.ID)}
}

// LocalData builds party i's local training set with exact features: the
// party's ground-truth-positive local documents (as the party observes
// them, i.e. subject to its label noise) plus sampled local negatives.
func (p *Pipeline) LocalData(party int) []ltr.Instance {
	var out []ltr.Instance
	rng := rand.New(rand.NewSource(p.Cfg.Seed + int64(party)*7919))
	docsN := len(p.Corpus.Parties[party].Docs)
	for _, q := range p.trainQ[party] {
		qref := corpus.QueryRef{Party: party, Query: q.ID}
		inGT := make(map[int]struct{})
		for _, sd := range p.Corpus.GroundTruth(qref) {
			if sd.Ref.Party != party {
				continue // the party cannot see cross-party relevance locally
			}
			inGT[sd.Ref.Doc] = struct{}{}
			// Scarce supervision: the party only holds labels for a
			// fraction of its local positives (the paper's premise).
			if rng.Float64() > p.Cfg.LocalLabelFrac {
				continue
			}
			label := p.Corpus.LocalLabel(qref, sd.Ref)
			out = append(out, p.exactInstance(q, party, sd.Ref, label))
		}
		for n := 0; n < p.Cfg.NegPerQuery; n++ {
			d := rng.Intn(docsN)
			if _, hit := inGT[d]; hit {
				continue
			}
			ref := corpus.DocRef{Party: party, Doc: d}
			out = append(out, p.exactInstance(q, party, ref, 0))
		}
	}
	return out
}

// AugmentResult carries a party's cross-party augmented training set and
// the protocol cost of producing it.
type AugmentResult struct {
	Instances []ltr.Instance
	Cost      core.Cost
}

// Augment builds party i's augmented dataset X'_i: for every training
// query, reverse top-K document queries (Algorithm 5, or Algorithm 3 when
// useRTK is false) against every other party find candidate relevant
// documents; the merged top AugPerQuery become positively labelled
// instances whose features come from the privacy-preserving sketch
// estimates.
func (p *Pipeline) Augment(party int, useRTK bool) (*AugmentResult, error) {
	return p.AugmentAmong(party, useRTK, nil)
}

// AugmentAmong is Augment restricted to a peer set: only parties listed
// in peers are queried (nil means all). Fig. 6b uses this to vary how
// many parties participate while corpus and test set stay fixed.
func (p *Pipeline) AugmentAmong(party int, useRTK bool, peers []int) (*AugmentResult, error) {
	res := &AugmentResult{}
	from := partyName(party)
	n := len(p.Fed.Parties)
	allowed := func(j int) bool { return true }
	if peers != nil {
		set := make(map[int]struct{}, len(peers))
		for _, j := range peers {
			set[j] = struct{}{}
		}
		allowed = func(j int) bool { _, ok := set[j]; return ok }
	}
	if n < 2 || p.Cfg.AugPerQuery == 0 {
		return res, nil
	}
	for _, q := range p.trainQ[party] {
		terms := q.UniqueTerms()
		// candidate document scores per (party, doc), with per-term counts
		// retained for feature building.
		type cand struct {
			party  int
			doc    int
			score  float64
			counts map[textkit.TermID]float64
		}
		byRef := make(map[corpus.DocRef]*cand)
		for j := 0; j < n; j++ {
			if j == party || !allowed(j) {
				continue
			}
			to := partyName(j)
			for _, t := range terms {
				docs, cost, err := p.Fed.ReverseTopK(from, to, federation.FieldBody,
					uint64(t), p.Cfg.Params.K, useRTK)
				if err != nil {
					return nil, fmt.Errorf("experiments: augment party %d term %d: %w", party, t, err)
				}
				res.Cost.Add(cost)
				for _, dc := range docs {
					if dc.Count <= 0 {
						continue
					}
					ref := corpus.DocRef{Party: j, Doc: dc.DocID}
					c := byRef[ref]
					if c == nil {
						c = &cand{party: j, doc: dc.DocID, counts: make(map[textkit.TermID]float64)}
						byRef[ref] = c
					}
					c.counts[t] = dc.Count
					c.score += dc.Count
				}
			}
		}
		cands := make([]*cand, 0, len(byRef))
		for _, c := range byRef {
			cands = append(cands, c)
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].score != cands[b].score {
				return cands[a].score > cands[b].score
			}
			if cands[a].party != cands[b].party {
				return cands[a].party < cands[b].party
			}
			return cands[a].doc < cands[b].doc
		})
		if len(cands) > p.Cfg.AugPerQuery {
			cands = cands[:p.Cfg.AugPerQuery]
		}
		for rank, c := range cands {
			inst, err := p.augmentedInstance(q, party, c.party, c.doc, c.counts, rank)
			if err != nil {
				return nil, err
			}
			res.Instances = append(res.Instances, inst)
		}
	}
	return res, nil
}

// augLabel assigns the label of one augmented instance per the
// configured AugLabelMode.
func (p *Pipeline) augLabel(qParty, queryID, dParty, docID, rank int) float64 {
	switch p.Cfg.AugLabel {
	case AugLabelRank:
		if rank < p.Cfg.Corpus.HighCut {
			return 2
		}
		return 1
	case AugLabelOracle:
		return float64(p.Corpus.Label(
			corpus.QueryRef{Party: qParty, Query: queryID},
			corpus.DocRef{Party: dParty, Doc: docID}))
	default:
		return 1
	}
}

// augmentedInstance builds one cross-party instance: body counts come
// from the reverse top-K estimates (supplemented by TF queries for terms
// the heaps missed), title counts from cross-party TF queries, lengths
// from the non-private metadata. The label follows the ground-truth
// labelling shape: the HighCut best-scored retrieved documents are
// "highly relevant" (2), the rest "relevant" (1) — the paper's augmented
// data is positively labelled by construction.
func (p *Pipeline) augmentedInstance(q *textkit.Query, qParty, dParty, docID int,
	bodyCounts map[textkit.TermID]float64, rank int) (ltr.Instance, error) {
	label := p.augLabel(qParty, q.ID, dParty, docID, rank)
	if p.Cfg.OracleAugment {
		doc := p.Corpus.Parties[dParty].Docs[docID]
		vec := features.Vector(q.UniqueTerms(),
			features.ExactField(doc.BodyCounts()),
			features.ExactField(doc.TitleCounts()),
			p.Stats, p.Cfg.Features)
		return ltr.Instance{Features: vec, Label: label, QueryKey: queryKey(qParty, q.ID)}, nil
	}
	from, to := partyName(qParty), partyName(dParty)
	ownerBody, err := p.Fed.Server.OwnerFor(to, federation.FieldBody)
	if err != nil {
		return ltr.Instance{}, err
	}
	ownerTitle, err := p.Fed.Server.OwnerFor(to, federation.FieldTitle)
	if err != nil {
		return ltr.Instance{}, err
	}
	bLen, bUniq, err := ownerBody.DocMeta(docID)
	if err != nil {
		return ltr.Instance{}, err
	}
	tLen, tUniq, err := ownerTitle.DocMeta(docID)
	if err != nil {
		return ltr.Instance{}, err
	}
	terms := q.UniqueTerms()
	// Fill body counts missing from the reverse top-K responses.
	for _, t := range terms {
		if _, ok := bodyCounts[t]; ok {
			continue
		}
		c, err := p.Fed.CrossTF(from, to, federation.FieldBody, docID, uint64(t))
		if err != nil {
			return ltr.Instance{}, err
		}
		bodyCounts[t] = c
	}
	titleCounts := make(map[textkit.TermID]float64, len(terms))
	for _, t := range terms {
		c, err := p.Fed.CrossTF(from, to, federation.FieldTitle, docID, uint64(t))
		if err != nil {
			return ltr.Instance{}, err
		}
		titleCounts[t] = c
	}
	body := features.FuncField(func(t textkit.TermID) float64 { return bodyCounts[t] }, bLen, bUniq)
	title := features.FuncField(func(t textkit.TermID) float64 { return titleCounts[t] }, tLen, tUniq)
	vec := features.Vector(terms, body, title, p.Stats, p.Cfg.Features)
	return ltr.Instance{Features: vec, Label: label, QueryKey: queryKey(qParty, q.ID)}, nil
}

// TestData builds the shared external test set: for every held-out query,
// its full ground-truth ranking (any party's documents, true labels) plus
// sampled negatives, all with exact features.
func (p *Pipeline) TestData() []ltr.Instance {
	var out []ltr.Instance
	rng := rand.New(rand.NewSource(p.Cfg.Seed + 104729))
	for party, queries := range p.testQ {
		for _, q := range queries {
			qref := corpus.QueryRef{Party: party, Query: q.ID}
			gt := p.Corpus.GroundTruth(qref)
			inGT := make(map[corpus.DocRef]struct{}, len(gt))
			for _, sd := range gt {
				inGT[sd.Ref] = struct{}{}
				out = append(out, p.exactInstance(q, party, sd.Ref, sd.Label))
			}
			for n := 0; n < p.Cfg.TestNegPerQuery; n++ {
				ref := corpus.DocRef{
					Party: rng.Intn(len(p.Corpus.Parties)),
					Doc:   rng.Intn(p.Cfg.Corpus.DocsPerParty),
				}
				if _, hit := inGT[ref]; hit {
					continue
				}
				out = append(out, p.exactInstance(q, party, ref, 0))
			}
		}
	}
	// Shuffle: instances were appended positives-first, and the metric
	// tie-break preserves input order — an unshuffled test set would hand
	// a constant-score model a perfect ranking.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// trainModel normalizes data (fitting the normalizer on it), trains a
// fresh linear model and returns both.
func (p *Pipeline) trainModel(data []ltr.Instance) (*ltr.LinearModel, *features.Normalizer, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("%w: empty training set", ErrBadConfig)
	}
	vecs := make([][]float64, len(data))
	norm := make([]ltr.Instance, len(data))
	for i, inst := range data {
		vecs[i] = append([]float64(nil), inst.Features...)
	}
	nz := features.FitNormalizer(vecs)
	for i, inst := range data {
		norm[i] = ltr.Instance{Features: nz.Apply(vecs[i]), Label: inst.Label, QueryKey: inst.QueryKey}
	}
	m := ltr.NewLinearModel(features.Dim)
	cfg := p.Cfg.SGD
	cfg.Epochs = p.Cfg.Rounds
	if err := cfg.Train(m, norm); err != nil {
		return nil, nil, err
	}
	return m, nz, nil
}

// trainFederated runs round-robin distributed SGD over per-party data
// with a normalizer fitted on the union.
func (p *Pipeline) trainFederated(partyData [][]ltr.Instance) (*ltr.LinearModel, *features.Normalizer, error) {
	var all [][]float64
	for _, d := range partyData {
		for _, inst := range d {
			all = append(all, inst.Features)
		}
	}
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("%w: no federated training data", ErrBadConfig)
	}
	nz := features.FitNormalizer(all)
	normed := make([][]ltr.Instance, len(partyData))
	for i, d := range partyData {
		normed[i] = make([]ltr.Instance, len(d))
		for j, inst := range d {
			v := nz.Apply(append([]float64(nil), inst.Features...))
			normed[i][j] = ltr.Instance{Features: v, Label: inst.Label, QueryKey: inst.QueryKey}
		}
	}
	m, err := ltr.TrainRoundRobin(features.Dim, normed, p.Cfg.Rounds, p.Cfg.SGD)
	if err != nil {
		return nil, nil, err
	}
	return m, nz, nil
}

// evaluate applies a model (with its normalizer) to the shared test set.
func evaluate(m *ltr.LinearModel, nz *features.Normalizer, test []ltr.Instance) ltr.Metrics {
	normed := make([]ltr.Instance, len(test))
	for i, inst := range test {
		v := nz.Apply(append([]float64(nil), inst.Features...))
		normed[i] = ltr.Instance{Features: v, Label: inst.Label, QueryKey: inst.QueryKey}
	}
	return ltr.Evaluate(m, normed)
}
