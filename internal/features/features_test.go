package features

import (
	"errors"
	"math"
	"testing"

	"csfltr/internal/corpus"
	"csfltr/internal/textkit"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{K1: 0, MuDIR: 1, LambdaJM: 0.5, DeltaABS: 0.5},
		{K1: 1, MuDIR: 0, LambdaJM: 0.5, DeltaABS: 0.5},
		{K1: 1, MuDIR: 1, LambdaJM: 0, DeltaABS: 0.5},
		{K1: 1, MuDIR: 1, LambdaJM: 1, DeltaABS: 0.5},
		{K1: 1, MuDIR: 1, LambdaJM: 0.5, DeltaABS: 0},
		{K1: 1, MuDIR: 1, LambdaJM: 0.5, DeltaABS: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadParams) {
			t.Fatalf("case %d: expected ErrBadParams, got %v", i, err)
		}
	}
}

// smallStats builds stats over two tiny documents for hand-checkable
// values.
func smallStats() (*Stats, *textkit.Document, *textkit.Document) {
	d1 := textkit.NewDocument(0, 0, []textkit.TermID{1}, []textkit.TermID{1, 1, 2, 3})
	d2 := textkit.NewDocument(1, 0, []textkit.TermID{2}, []textkit.TermID{2, 2, 2, 4})
	return ComputeStats([]*textkit.Document{d1, d2}), d1, d2
}

func TestComputeStats(t *testing.T) {
	st, _, _ := smallStats()
	if st.Body.NumDocs != 2 || st.Title.NumDocs != 2 {
		t.Fatalf("NumDocs body=%d title=%d", st.Body.NumDocs, st.Title.NumDocs)
	}
	if st.Body.TotalLen != 8 {
		t.Fatalf("body TotalLen = %d, want 8", st.Body.TotalLen)
	}
	if st.Body.AvgLen != 4 {
		t.Fatalf("body AvgLen = %v, want 4", st.Body.AvgLen)
	}
	if st.Body.DocFreq[2] != 2 || st.Body.DocFreq[1] != 1 {
		t.Fatalf("DocFreq wrong: %v", st.Body.DocFreq)
	}
	if st.Body.CollFreq[2] != 4 {
		t.Fatalf("CollFreq[2] = %d, want 4", st.Body.CollFreq[2])
	}
}

func TestIDFValues(t *testing.T) {
	st, _, _ := smallStats()
	// term 1 appears in 1 of 2 docs: IDF = ln 2.
	if got := st.Body.IDF(1); math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("IDF(1) = %v, want ln2", got)
	}
	// term 2 in both docs: IDF = 0.
	if got := st.Body.IDF(2); got != 0 {
		t.Fatalf("IDF(2) = %v, want 0", got)
	}
	// unseen term: df floored at 1.
	if got := st.Body.IDF(99); math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("IDF(unseen) = %v, want ln2", got)
	}
}

func TestExactFieldCounts(t *testing.T) {
	tv := textkit.TermVector{1: 3, 2: 1}
	f := ExactField(tv)
	if f.Count(1) != 3 || f.Count(2) != 1 || f.Count(9) != 0 {
		t.Fatal("ExactField counts wrong")
	}
	if f.Length() != 4 || f.Unique() != 2 {
		t.Fatalf("Length=%d Unique=%d", f.Length(), f.Unique())
	}
}

func TestFuncFieldClampsNegative(t *testing.T) {
	f := FuncField(func(textkit.TermID) float64 { return -2.5 }, 10, 5)
	if f.Count(1) != 0 {
		t.Fatal("negative estimates must clamp to 0")
	}
	if f.Length() != 10 || f.Unique() != 5 {
		t.Fatal("metadata wrong")
	}
}

func TestVectorHandComputed(t *testing.T) {
	st, d1, _ := smallStats()
	p := DefaultParams()
	q := []textkit.TermID{1}
	v := Vector(q, ExactField(d1.BodyCounts()), ExactField(d1.TitleCounts()), st, p)
	if len(v) != Dim {
		t.Fatalf("len = %d", len(v))
	}
	if v[FeatLen] != 4 {
		t.Fatalf("body len feature = %v, want 4", v[FeatLen])
	}
	// TF = 2/4 = 0.5.
	if math.Abs(v[FeatTF]-0.5) > 1e-12 {
		t.Fatalf("body tf = %v, want 0.5", v[FeatTF])
	}
	if math.Abs(v[FeatIDF]-math.Ln2) > 1e-12 {
		t.Fatalf("body idf = %v, want ln2", v[FeatIDF])
	}
	if math.Abs(v[FeatTFIDF]-0.5*math.Ln2) > 1e-12 {
		t.Fatalf("body tfidf = %v", v[FeatTFIDF])
	}
	// BM25 = idf * tf*(k1+1)/(tf+k1) = ln2 * 0.5*2.2/1.7.
	wantBM25 := math.Ln2 * 0.5 * 2.2 / 1.7
	if math.Abs(v[FeatBM25]-wantBM25) > 1e-12 {
		t.Fatalf("body bm25 = %v, want %v", v[FeatBM25], wantBM25)
	}
	// LMIR.DIR = log((2 + 2000*p(1|C)) / (4 + 2000)); p(1|C) = 2/8.
	wantDIR := math.Log((2 + 2000*0.25) / (4 + 2000))
	if math.Abs(v[FeatLMIRDIR]-wantDIR) > 1e-9 {
		t.Fatalf("body lmir.dir = %v, want %v", v[FeatLMIRDIR], wantDIR)
	}
	// LMIR.JM = log(0.9*2/4 + 0.1*0.25).
	wantJM := math.Log(0.9*0.5 + 0.1*0.25)
	if math.Abs(v[FeatLMIRJM]-wantJM) > 1e-9 {
		t.Fatalf("body lmir.jm = %v, want %v", v[FeatLMIRJM], wantJM)
	}
	// LMIR.ABS = log((2-0.7)/4 + 0.7*(3/4)*0.25) (unique=3).
	wantABS := math.Log(1.3/4 + 0.7*0.75*0.25 + 1e-12)
	if math.Abs(v[FeatLMIRABS]-wantABS) > 1e-9 {
		t.Fatalf("body lmir.abs = %v, want %v", v[FeatLMIRABS], wantABS)
	}
	// Title of d1 is [1]: title TF = 1/1 = 1.
	if v[fieldFeatures+FeatLen] != 1 || math.Abs(v[fieldFeatures+FeatTF]-1) > 1e-12 {
		t.Fatalf("title features wrong: %v", v[fieldFeatures:])
	}
}

// TestVectorMonotonicity: a document containing the query terms should
// out-feature a same-length document without them on TF-derived features.
func TestVectorMonotonicity(t *testing.T) {
	st, d1, d2 := smallStats()
	p := DefaultParams()
	q := []textkit.TermID{1} // term 1 only in d1
	v1 := Vector(q, ExactField(d1.BodyCounts()), ExactField(d1.TitleCounts()), st, p)
	v2 := Vector(q, ExactField(d2.BodyCounts()), ExactField(d2.TitleCounts()), st, p)
	for _, idx := range []int{FeatTF, FeatTFIDF, FeatBM25, FeatLMIRDIR, FeatLMIRJM} {
		if v1[idx] <= v2[idx] {
			t.Fatalf("feature %d should favour the matching document: %v vs %v", idx, v1[idx], v2[idx])
		}
	}
}

func TestVectorEmptyField(t *testing.T) {
	st, d1, _ := smallStats()
	empty := ExactField(textkit.TermVector{})
	v := Vector([]textkit.TermID{1}, empty, ExactField(d1.TitleCounts()), st, DefaultParams())
	for i := 0; i < fieldFeatures; i++ {
		if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
			t.Fatalf("empty field produced non-finite feature %d: %v", i, v[i])
		}
	}
	if v[FeatLen] != 0 || v[FeatTF] != 0 || v[FeatBM25] != 0 {
		t.Fatalf("empty field TF features should be 0: %v", v[:fieldFeatures])
	}
}

func TestVectorNoQueryTerms(t *testing.T) {
	st, d1, _ := smallStats()
	v := Vector(nil, ExactField(d1.BodyCounts()), ExactField(d1.TitleCounts()), st, DefaultParams())
	for i, x := range v {
		if i%fieldFeatures == FeatLen {
			continue
		}
		if x != 0 {
			t.Fatalf("feature %d should be 0 with no query terms: %v", i, x)
		}
	}
}

// TestVectorFiniteOnCorpus: every feature over a real synthetic corpus
// must be finite.
func TestVectorFiniteOnCorpus(t *testing.T) {
	c, err := corpus.Generate(corpus.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(c.Parties[0].Docs, c.Parties[1].Docs, c.Parties[2].Docs, c.Parties[3].Docs)
	p := DefaultParams()
	for _, q := range c.Parties[0].Queries {
		for _, d := range c.Parties[1].Docs[:20] {
			v := Vector(q.UniqueTerms(), ExactField(d.BodyCounts()), ExactField(d.TitleCounts()), st, p)
			for i, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("non-finite feature %d for q%d d%d: %v", i, q.ID, d.ID, x)
				}
			}
		}
	}
}

func TestNormalizer(t *testing.T) {
	vecs := [][]float64{
		{1, 10, 5},
		{3, 10, 7},
		{5, 10, 9},
	}
	n := FitNormalizer(vecs)
	if n.Scale[1] != 0 {
		t.Fatal("constant dimension should have zero scale")
	}
	cp := make([][]float64, len(vecs))
	for i, v := range vecs {
		cp[i] = append([]float64(nil), v...)
	}
	n.ApplyAll(cp)
	// Column 0: mean 3, sd sqrt(8/3).
	var mean0, var0 float64
	for _, v := range cp {
		mean0 += v[0]
	}
	mean0 /= 3
	for _, v := range cp {
		var0 += (v[0] - mean0) * (v[0] - mean0)
	}
	var0 /= 3
	if math.Abs(mean0) > 1e-12 || math.Abs(var0-1) > 1e-9 {
		t.Fatalf("normalized column 0: mean=%v var=%v", mean0, var0)
	}
	for _, v := range cp {
		if v[1] != 0 {
			t.Fatal("constant column should normalize to 0")
		}
	}
}

func TestNormalizerEmpty(t *testing.T) {
	n := FitNormalizer(nil)
	v := []float64{1, 2}
	if got := n.Apply(v); got[0] != 1 || got[1] != 2 {
		t.Fatal("empty normalizer must be identity")
	}
}

// TestExactVsFuncFieldEquivalence: wrapping exact counts in a FuncField
// must give identical vectors — the property that lets the federated path
// reuse the same extractor.
func TestExactVsFuncFieldEquivalence(t *testing.T) {
	st, d1, _ := smallStats()
	p := DefaultParams()
	q := []textkit.TermID{1, 2, 3}
	bodyTV := d1.BodyCounts()
	exact := Vector(q, ExactField(bodyTV), ExactField(d1.TitleCounts()), st, p)
	oracle := FuncField(func(t textkit.TermID) float64 { return float64(bodyTV[t]) },
		bodyTV.Total(), bodyTV.Unique())
	viaFunc := Vector(q, oracle, ExactField(d1.TitleCounts()), st, p)
	for i := range exact {
		if math.Abs(exact[i]-viaFunc[i]) > 1e-12 {
			t.Fatalf("feature %d differs: %v vs %v", i, exact[i], viaFunc[i])
		}
	}
}
