// Package features implements the learning-to-rank feature extractor of
// CS-F-LTR. Section VI-A of the paper: "The features we use include
// length, TF, IDF, TF-IDF, BM25, LMIR.ABS, LMIR.DIR and LMIR.JM of each
// document's body and title, which form a 16-dimensional vector for each
// instance."
//
// The extractor is written against the Field interface so that the same
// formulas run in two modes:
//
//   - exact mode: Field wraps a local textkit.TermVector (a party scoring
//     its own documents);
//   - federated mode: Field wraps the privacy-preserving cross-party TF
//     query of package core, whose counts are sketch estimates perturbed
//     by differential privacy.
//
// Document length and unique-term count are treated as non-private
// metadata, exactly as Definition 2 of the paper assumes ("the length of
// document is non-private, thus can be directly shared").
package features

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"csfltr/internal/textkit"
)

// Dim is the dimensionality of the extracted feature vector: 8 features
// for the body field plus 8 for the title field.
const Dim = 16

// Per-field feature layout (offsets within each 8-feature block).
const (
	FeatLen = iota
	FeatTF
	FeatIDF
	FeatTFIDF
	FeatBM25
	FeatLMIRABS
	FeatLMIRDIR
	FeatLMIRJM
	fieldFeatures // 8
)

// Errors returned by this package.
var ErrBadParams = errors.New("features: invalid parameters")

// Params holds the scoring-function hyperparameters.
type Params struct {
	K1       float64 // BM25 k1 (the paper's k_1)
	MuDIR    float64 // Dirichlet smoothing mass for LMIR.DIR
	LambdaJM float64 // Jelinek-Mercer interpolation for LMIR.JM
	DeltaABS float64 // absolute-discount for LMIR.ABS
}

// DefaultParams returns the conventional LETOR parameter setting.
func DefaultParams() Params {
	return Params{K1: 1.2, MuDIR: 2000, LambdaJM: 0.1, DeltaABS: 0.7}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.K1 <= 0:
		return fmt.Errorf("%w: K1=%v", ErrBadParams, p.K1)
	case p.MuDIR <= 0:
		return fmt.Errorf("%w: MuDIR=%v", ErrBadParams, p.MuDIR)
	case p.LambdaJM <= 0 || p.LambdaJM >= 1:
		return fmt.Errorf("%w: LambdaJM=%v", ErrBadParams, p.LambdaJM)
	case p.DeltaABS <= 0 || p.DeltaABS >= 1:
		return fmt.Errorf("%w: DeltaABS=%v", ErrBadParams, p.DeltaABS)
	}
	return nil
}

// Field is one scoreable document field (body or title): a way to obtain
// term counts plus the non-private length metadata.
type Field interface {
	// Count returns the (possibly estimated) count of term in the field.
	Count(term textkit.TermID) float64
	// Length returns the total number of term occurrences in the field.
	Length() int
	// Unique returns the number of distinct terms in the field.
	Unique() int
}

// exactField adapts a local TermVector to Field.
type exactField struct {
	tv     textkit.TermVector
	length int
	unique int
}

// ExactField wraps a term-count vector as an exact Field.
func ExactField(tv textkit.TermVector) Field {
	return &exactField{tv: tv, length: tv.Total(), unique: tv.Unique()}
}

func (f *exactField) Count(t textkit.TermID) float64 { return float64(f.tv[t]) }
func (f *exactField) Length() int                    { return f.length }
func (f *exactField) Unique() int                    { return f.unique }

// FuncField wraps an arbitrary count oracle (e.g. the cross-party TF
// protocol) as a Field. Negative oracle outputs are clamped to zero: Count
// Sketch estimates and DP noise can be negative but a term count cannot.
func FuncField(count func(textkit.TermID) float64, length, unique int) Field {
	return &funcField{count: count, length: length, unique: unique}
}

type funcField struct {
	count  func(textkit.TermID) float64
	length int
	unique int
}

func (f *funcField) Count(t textkit.TermID) float64 {
	c := f.count(t)
	if c < 0 {
		return 0
	}
	return c
}
func (f *funcField) Length() int { return f.length }
func (f *funcField) Unique() int { return f.unique }

// FieldStats holds the collection-level statistics of one field over the
// whole (global) corpus: what IDF and the LMIR collection model need.
type FieldStats struct {
	NumDocs  int                      // documents in the collection
	TotalLen int64                    // total term occurrences
	AvgLen   float64                  // mean field length
	DocFreq  map[textkit.TermID]int   // documents containing the term
	CollFreq map[textkit.TermID]int64 // total occurrences of the term
}

// collectionProb returns the smoothed collection language-model
// probability p(t|C) with a small floor so log never sees zero.
func (s *FieldStats) collectionProb(t textkit.TermID) float64 {
	if s.TotalLen == 0 {
		return 1e-9
	}
	c := float64(s.CollFreq[t])
	p := c / float64(s.TotalLen)
	floor := 0.5 / float64(s.TotalLen)
	if p < floor {
		return floor
	}
	return p
}

// IDF returns the paper's inverse document frequency
// log(N / df(t)), flooring df at 1 so unseen terms stay finite.
func (s *FieldStats) IDF(t textkit.TermID) float64 {
	df := s.DocFreq[t]
	if df < 1 {
		df = 1
	}
	return math.Log(float64(s.NumDocs) / float64(df))
}

// Stats bundles the per-field collection statistics.
type Stats struct {
	Body  FieldStats
	Title FieldStats
}

// ComputeStats scans document sets (typically one slice per party) and
// accumulates global field statistics. In the real protocol these
// aggregates are assembled from non-private per-party summaries; here the
// computation is centralized because the quantities themselves are the
// same either way.
func ComputeStats(parties ...[]*textkit.Document) *Stats {
	st := &Stats{
		Body:  FieldStats{DocFreq: make(map[textkit.TermID]int), CollFreq: make(map[textkit.TermID]int64)},
		Title: FieldStats{DocFreq: make(map[textkit.TermID]int), CollFreq: make(map[textkit.TermID]int64)},
	}
	accumulate := func(fs *FieldStats, tv textkit.TermVector) {
		fs.NumDocs++
		for term, c := range tv {
			fs.DocFreq[term]++
			fs.CollFreq[term] += int64(c)
			fs.TotalLen += int64(c)
		}
	}
	for _, docs := range parties {
		for _, d := range docs {
			accumulate(&st.Body, d.BodyCounts())
			accumulate(&st.Title, d.TitleCounts())
		}
	}
	if st.Body.NumDocs > 0 {
		st.Body.AvgLen = float64(st.Body.TotalLen) / float64(st.Body.NumDocs)
		st.Title.AvgLen = float64(st.Title.TotalLen) / float64(st.Title.NumDocs)
	}
	return st
}

// Vector extracts the paper's 16-dimensional feature vector for a query
// against one document represented by its two fields. qTerms should be
// the query's unique terms.
func Vector(qTerms []textkit.TermID, body, title Field, stats *Stats, p Params) []float64 {
	out := make([]float64, Dim)
	fieldVector(out[:fieldFeatures], qTerms, body, &stats.Body, p)
	fieldVector(out[fieldFeatures:], qTerms, title, &stats.Title, p)
	return out
}

// fieldVector fills one 8-feature block.
func fieldVector(out []float64, qTerms []textkit.TermID, f Field, fs *FieldStats, p Params) {
	length := float64(f.Length())
	out[FeatLen] = length
	if length == 0 {
		// Degenerate field: every TF-dependent feature is zero and the
		// LMIR log-likelihoods fall back to pure collection probability.
		length = 1
	}
	unique := float64(f.Unique())
	var tfSum, idfSum, tfidfSum, bm25, abs, dir, jm float64
	for _, t := range qTerms {
		count := f.Count(t)
		tf := count / length // the paper's TF_{i,j}(t,d) = TC/L
		idf := fs.IDF(t)
		pc := fs.collectionProb(t)

		tfSum += tf
		idfSum += idf
		tfidfSum += tf * idf
		// Paper's BM25 (Section III-B): IDF * TF * (k1+1) / (TF + k1).
		bm25 += idf * tf * (p.K1 + 1) / (tf + p.K1)
		// LMIR.ABS: absolute discounting.
		disc := count - p.DeltaABS
		if disc < 0 {
			disc = 0
		}
		abs += math.Log(disc/length + p.DeltaABS*unique/length*pc + tiny)
		// LMIR.DIR: Dirichlet prior smoothing.
		dir += math.Log((count + p.MuDIR*pc) / (length + p.MuDIR))
		// LMIR.JM: Jelinek-Mercer interpolation.
		jm += math.Log((1-p.LambdaJM)*count/length + p.LambdaJM*pc)
	}
	out[FeatTF] = tfSum
	out[FeatIDF] = idfSum
	out[FeatTFIDF] = tfidfSum
	out[FeatBM25] = bm25
	out[FeatLMIRABS] = abs
	out[FeatLMIRDIR] = dir
	out[FeatLMIRJM] = jm
}

// tiny keeps LMIR.ABS finite when both the discounted count and the
// collection probability vanish.
const tiny = 1e-12

// Normalizer rescales feature vectors to zero mean and unit variance,
// fitted on a training set. Linear models trained with SGD need this —
// raw features mix scales from single digits (TF) to thousands (length).
type Normalizer struct {
	Mean  []float64
	Scale []float64 // reciprocal standard deviation (0 for constant dims)
}

// FitNormalizer computes per-dimension mean and scale from vectors.
func FitNormalizer(vectors [][]float64) *Normalizer {
	if len(vectors) == 0 {
		return &Normalizer{}
	}
	d := len(vectors[0])
	n := &Normalizer{Mean: make([]float64, d), Scale: make([]float64, d)}
	for _, v := range vectors {
		for i, x := range v {
			n.Mean[i] += x
		}
	}
	for i := range n.Mean {
		n.Mean[i] /= float64(len(vectors))
	}
	for _, v := range vectors {
		for i, x := range v {
			dlt := x - n.Mean[i]
			n.Scale[i] += dlt * dlt
		}
	}
	for i := range n.Scale {
		sd := math.Sqrt(n.Scale[i] / float64(len(vectors)))
		if sd > 1e-12 {
			n.Scale[i] = 1 / sd
		} else {
			n.Scale[i] = 0
		}
	}
	return n
}

// Apply normalizes v in place and returns it.
func (n *Normalizer) Apply(v []float64) []float64 {
	if len(n.Mean) == 0 {
		return v
	}
	for i := range v {
		if i >= len(n.Mean) {
			break
		}
		v[i] = (v[i] - n.Mean[i]) * n.Scale[i]
	}
	return v
}

// ApplyAll normalizes every vector in place.
func (n *Normalizer) ApplyAll(vectors [][]float64) {
	for _, v := range vectors {
		n.Apply(v)
	}
}

// normalizerMagic guards serialized normalizers.
const normalizerMagic = uint32(0x4E524D31) // "NRM1"

// ErrCorruptNormalizer marks unreadable persisted normalizers.
var ErrCorruptNormalizer = errors.New("features: corrupt serialized normalizer")

// WriteTo serializes the normalizer (dimension, means, scales). A model
// is only usable together with the normalizer it was trained with, so
// both are persisted side by side.
func (n *Normalizer) WriteTo(w io.Writer) (int64, error) {
	var written int64
	write := func(v any) error {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
		written += int64(binary.Size(v))
		return nil
	}
	if err := write(normalizerMagic); err != nil {
		return written, err
	}
	if err := write(uint64(len(n.Mean))); err != nil {
		return written, err
	}
	if err := write(n.Mean); err != nil {
		return written, err
	}
	if err := write(n.Scale); err != nil {
		return written, err
	}
	return written, nil
}

// ReadNormalizer reconstructs a normalizer serialized with WriteTo.
func ReadNormalizer(r io.Reader) (*Normalizer, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil || magic != normalizerMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptNormalizer)
	}
	var dim uint64
	if err := binary.Read(r, binary.LittleEndian, &dim); err != nil || dim > 1<<20 {
		return nil, fmt.Errorf("%w: implausible dimension", ErrCorruptNormalizer)
	}
	n := &Normalizer{Mean: make([]float64, dim), Scale: make([]float64, dim)}
	if err := binary.Read(r, binary.LittleEndian, &n.Mean); err != nil {
		return nil, fmt.Errorf("%w: truncated means", ErrCorruptNormalizer)
	}
	if err := binary.Read(r, binary.LittleEndian, &n.Scale); err != nil {
		return nil, fmt.Errorf("%w: truncated scales", ErrCorruptNormalizer)
	}
	return n, nil
}
