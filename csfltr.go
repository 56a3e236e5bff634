// Package csfltr is a from-scratch Go implementation of CS-F-LTR —
// "An Efficient Approach for Cross-Silo Federated Learning to Rank"
// (Wang, Tong, Shi, Xu; ICDE 2021).
//
// CS-F-LTR lets N enterprises (silos) collaboratively train a
// learning-to-rank model over cross-partitioned data — documents AND
// queries are spread across parties — without exchanging raw text. Its
// building blocks, all implemented here:
//
//   - a privacy-preserving cross-party term-frequency query: per-document
//     Count/Count-Min sketches with keyed hashing, query obfuscation via
//     a private index set, and epsilon-DP Laplace perturbation of results
//     (paper Section IV; packages internal/sketch, internal/dp,
//     internal/core);
//   - the reverse top-K sketch (RTK-Sketch), which answers "which of your
//     documents are most relevant to this term?" in one round trip and
//     O(alpha*K*z) work instead of the NAIVE O(n*z) scan (Section V;
//     internal/core);
//   - the federation substrate: parties, an honest-but-curious
//     coordinating server with byte-level traffic accounting, a
//     Diffie-Hellman ceremony that keeps hash keys away from the server,
//     and an HTTP wire-frame host for parties in other processes
//     (internal/federation, internal/keyex);
//   - the LTR layer: the paper's 16 features (length, TF, IDF, TF-IDF,
//     BM25, LMIR.ABS/DIR/JM on body and title), pointwise linear models,
//     round-robin distributed SGD, and ERR/nDCG metrics
//     (internal/features, internal/ltr);
//   - the full benchmark harness regenerating every table and figure of
//     the paper's evaluation (internal/experiments; see EXPERIMENTS.md).
//
// This facade re-exports the high-level entry points. Most applications
// need only three calls:
//
//	cfg := csfltr.DefaultSimulationConfig()
//	result, err := csfltr.RunSimulation(cfg)
//	fmt.Print(csfltr.RenderTable(result))
//
// For custom corpora, build a Federation directly and ingest documents:
//
//	fed, _ := csfltr.NewFederation([]string{"A", "B"}, csfltr.DefaultParams(), 1)
//	partyA, _ := fed.Party("A")
//	partyA.IngestDocument(doc)
//	top, cost, _ := fed.ReverseTopK("B", "A", csfltr.FieldBody, term, 10, true)
//	res, _ := fed.Search("B", []uint64{term}, 10) // every other party, merged
package csfltr

import (
	"io"

	"csfltr/internal/core"
	"csfltr/internal/corpus"
	"csfltr/internal/experiments"
	"csfltr/internal/federation"
	"csfltr/internal/ltr"
	"csfltr/internal/textkit"
)

// Params are the shared protocol parameters of a federation (sketch
// geometry z x w, obfuscation width z1, DP budget epsilon, RTK parameters
// alpha, beta, K).
type Params = core.Params

// DefaultParams returns the paper's default parameter setting
// (alpha=5, beta=0.1, w=200, z=30, K=150, epsilon=0.5).
func DefaultParams() Params { return core.DefaultParams() }

// Federation is a set of parties around a coordinating server after a
// completed setup ceremony.
type Federation = federation.Federation

// Party is one silo's endpoint: sketch state for both document fields, a
// querier and a privacy accountant.
type Party = federation.Party

// Field selects the document field a cross-party query addresses.
type Field = federation.Field

// Field constants.
const (
	FieldBody  = federation.FieldBody
	FieldTitle = federation.FieldTitle
)

// DocCount is one reverse top-K result entry.
type DocCount = core.DocCount

// SearchHit is one federated search result (see Federation.Search: a
// whole query ranked across every other party's private documents).
type SearchHit = federation.SearchHit

// Cost records protocol communication and computation cost.
type Cost = core.Cost

// Document is a retrievable unit (title + body term sequences).
type Document = textkit.Document

// Query is a search query (term sequence).
type Query = textkit.Query

// Vocabulary interns term strings to the dense numeric IDs the sketches
// hash.
type Vocabulary = textkit.Vocabulary

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary { return textkit.NewVocabulary() }

// Tokenize lowercases and splits text into terms.
func Tokenize(text string) []string { return textkit.Tokenize(text) }

// NewDocument builds a document from raw title/body text using vocab.
// Topic is recorded as unknown (-1).
func NewDocument(vocab *Vocabulary, id int, title, body string) *Document {
	return textkit.NewDocument(id, -1,
		vocab.InternAll(textkit.Tokenize(title)),
		vocab.InternAll(textkit.Tokenize(body)))
}

// NewQuery builds a query from raw text using vocab.
func NewQuery(vocab *Vocabulary, id int, text string) *Query {
	return textkit.NewQuery(id, -1, vocab.InternAll(textkit.Tokenize(text)))
}

// NewFederation runs the full setup ceremony (Diffie-Hellman pairwise
// agreement, sealed hash-seed distribution) and returns a ready
// federation.
func NewFederation(names []string, params Params, rngSeed int64) (*Federation, error) {
	return federation.New(names, params, rngSeed)
}

// NewDeterministicFederation skips the ceremony and uses a fixed hash
// seed — for reproducible experiments.
func NewDeterministicFederation(names []string, params Params, hashSeed uint64, rngSeed int64) (*Federation, error) {
	return federation.NewDeterministic(names, params, hashSeed, rngSeed)
}

// Metrics bundles ERR, nDCG and nDCG@10.
type Metrics = ltr.Metrics

// SimulationConfig configures an end-to-end CS-F-LTR simulation on the
// synthetic MS MARCO-style corpus.
type SimulationConfig = experiments.PipelineConfig

// DefaultSimulationConfig returns the laptop-scale default simulation.
func DefaultSimulationConfig() SimulationConfig {
	return experiments.DefaultPipelineConfig()
}

// CorpusConfig controls synthetic corpus generation.
type CorpusConfig = corpus.Config

// SimulationResult is the Table-I style outcome of a simulation: metrics
// for Local, Local+, Global and CS-F-LTR on a shared external test set.
type SimulationResult = experiments.Table1Result

// RunSimulation generates a corpus, builds the federation, augments every
// party's data through the privacy-preserving protocols, trains all four
// methods and evaluates them.
func RunSimulation(cfg SimulationConfig) (*SimulationResult, error) {
	p, err := experiments.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return experiments.RunTable1(p)
}

// RenderTable formats a SimulationResult like the paper's Table I.
func RenderTable(res *SimulationResult) string { return experiments.RenderTable1(res) }

// TrainedModel is a trained CS-F-LTR ranking model bundled with its
// feature normalizer; it serializes with WriteTo and scores raw feature
// vectors with Score.
type TrainedModel = experiments.TrainedModel

// TrainModel runs the full CS-F-LTR training path (synthetic corpus,
// sketches, privacy-preserving augmentation, round-robin distributed
// SGD) and returns the model with its test metrics.
func TrainModel(cfg SimulationConfig) (*TrainedModel, error) {
	p, err := experiments.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return experiments.TrainCSFLTR(p)
}

// ReadTrainedModel restores a model persisted with TrainedModel.WriteTo.
func ReadTrainedModel(r io.Reader) (*TrainedModel, error) {
	return experiments.ReadTrainedModel(r)
}
