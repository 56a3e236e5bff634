package ltr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestLinearModelScore(t *testing.T) {
	m := &LinearModel{W: []float64{1, -2, 0.5}, B: 3}
	if got := m.Score([]float64{2, 1, 4}); got != 3+2-2+2 {
		t.Fatalf("Score = %v", got)
	}
	// Short vector: zero-padded.
	if got := m.Score([]float64{2}); got != 5 {
		t.Fatalf("short Score = %v", got)
	}
	if got := m.Score(nil); got != 3 {
		t.Fatalf("nil Score = %v", got)
	}
}

func TestLinearModelClone(t *testing.T) {
	m := &LinearModel{W: []float64{1, 2}, B: 0.5}
	c := m.Clone()
	c.W[0] = 99
	c.B = 99
	if m.W[0] != 1 || m.B != 0.5 {
		t.Fatal("Clone must be independent")
	}
	if NewLinearModel(4).Dim() != 4 {
		t.Fatal("Dim wrong")
	}
}

func TestAverage(t *testing.T) {
	a := &LinearModel{W: []float64{2, 4}, B: 1}
	b := &LinearModel{W: []float64{4, 0}, B: 3}
	avg, err := average([]*LinearModel{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if avg.W[0] != 3 || avg.W[1] != 2 || avg.B != 2 {
		t.Fatalf("average = %+v", avg)
	}
	if _, err := average(nil); !errors.Is(err, ErrBadData) {
		t.Fatal("empty average should error")
	}
	if _, err := average([]*LinearModel{a, NewLinearModel(3)}); !errors.Is(err, ErrBadData) {
		t.Fatal("dim mismatch should error")
	}
}

func TestSGDConfigValidate(t *testing.T) {
	if err := DefaultSGDConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*SGDConfig){
		func(c *SGDConfig) { c.LearningRate = 0 },
		func(c *SGDConfig) { c.LRDecay = 0 },
		func(c *SGDConfig) { c.LRDecay = 1.5 },
		func(c *SGDConfig) { c.Epochs = 0 },
		func(c *SGDConfig) { c.BatchSize = 0 },
		func(c *SGDConfig) { c.L2 = -1 },
		func(c *SGDConfig) { c.Loss = Loss(9) },
	}
	for i, mut := range bad {
		c := DefaultSGDConfig()
		mut(&c)
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("case %d: expected ErrBadConfig, got %v", i, err)
		}
	}
}

// synthLinear builds a noisy linear-regression dataset whose true weights
// are known.
func synthLinear(n int, seed int64) ([]Instance, []float64) {
	trueW := []float64{1.5, -2.0, 0.7}
	rng := rand.New(rand.NewSource(seed))
	data := make([]Instance, n)
	for i := range data {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y := 0.3
		for j, w := range trueW {
			y += w * x[j]
		}
		y += 0.05 * rng.NormFloat64()
		data[i] = Instance{Features: x, Label: y, QueryKey: "q"}
	}
	return data, trueW
}

func TestSGDLearnsLinear(t *testing.T) {
	data, trueW := synthLinear(2000, 1)
	cfg := DefaultSGDConfig()
	cfg.Epochs = 60
	m := NewLinearModel(3)
	if err := cfg.Train(m, data); err != nil {
		t.Fatal(err)
	}
	for i, w := range trueW {
		if math.Abs(m.W[i]-w) > 0.1 {
			t.Fatalf("weight %d: got %v, want ~%v (model %+v)", i, m.W[i], w, m)
		}
	}
	if math.Abs(m.B-0.3) > 0.1 {
		t.Fatalf("bias %v, want ~0.3", m.B)
	}
}

func TestSGDLogisticSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var data []Instance
	for i := 0; i < 1000; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		label := 0.0
		if x[0]+x[1] > 0 {
			label = 2 // graded positive
		}
		data = append(data, Instance{Features: x, Label: label, QueryKey: "q"})
	}
	cfg := DefaultSGDConfig()
	cfg.Loss = LogisticLoss
	cfg.Epochs = 50
	m := NewLinearModel(2)
	if err := cfg.Train(m, data); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, inst := range data {
		pred := m.Score(inst.Features) > 0
		if pred == (inst.Label > 0) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(data)); acc < 0.95 {
		t.Fatalf("logistic accuracy %v too low", acc)
	}
}

func TestTrainErrors(t *testing.T) {
	cfg := DefaultSGDConfig()
	m := NewLinearModel(2)
	if err := cfg.Train(m, nil); !errors.Is(err, ErrBadData) {
		t.Fatal("empty data should error")
	}
	bad := []Instance{{Features: []float64{1, 2, 3}, Label: 1, QueryKey: "q"}}
	if err := cfg.Train(m, bad); !errors.Is(err, ErrBadData) {
		t.Fatal("dim mismatch should error")
	}
	cfg.Epochs = 0
	if err := cfg.Train(m, bad); !errors.Is(err, ErrBadConfig) {
		t.Fatal("bad config should error")
	}
}

func TestTrainDeterministic(t *testing.T) {
	data, _ := synthLinear(500, 3)
	cfg := DefaultSGDConfig()
	m1 := NewLinearModel(3)
	m2 := NewLinearModel(3)
	if err := cfg.Train(m1, data); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Train(m2, data); err != nil {
		t.Fatal(err)
	}
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("training is not deterministic for a fixed seed")
		}
	}
}

func TestRoundRobinMatchesCentralized(t *testing.T) {
	data, trueW := synthLinear(2000, 4)
	parts := [][]Instance{data[:500], data[500:1000], data[1000:1500], data[1500:]}
	cfg := DefaultSGDConfig()
	m, err := TrainRoundRobin(3, parts, 40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range trueW {
		if math.Abs(m.W[i]-w) > 0.15 {
			t.Fatalf("round-robin weight %d: got %v, want ~%v", i, m.W[i], w)
		}
	}
}

func TestFedAvgMatchesCentralized(t *testing.T) {
	data, trueW := synthLinear(2000, 5)
	parts := [][]Instance{data[:1000], data[1000:]}
	cfg := DefaultSGDConfig()
	m, err := TrainFedAvg(3, parts, 40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range trueW {
		if math.Abs(m.W[i]-w) > 0.15 {
			t.Fatalf("fedavg weight %d: got %v, want ~%v", i, m.W[i], w)
		}
	}
}

func TestFederatedTrainersSkipEmptyParties(t *testing.T) {
	data, _ := synthLinear(400, 6)
	parts := [][]Instance{nil, data, {}}
	if _, err := TrainRoundRobin(3, parts, 5, DefaultSGDConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainFedAvg(3, parts, 5, DefaultSGDConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainRoundRobin(3, [][]Instance{nil, {}}, 5, DefaultSGDConfig()); !errors.Is(err, ErrBadData) {
		t.Fatal("all-empty should error")
	}
	if _, err := TrainRoundRobin(3, parts, 0, DefaultSGDConfig()); !errors.Is(err, ErrBadConfig) {
		t.Fatal("zero rounds should error")
	}
}

func TestDCGHandComputed(t *testing.T) {
	// labels ranked [2, 1, 0]: DCG = 3/1 + 1/log2(3) + 0.
	want := 3 + 1/math.Log2(3)
	if got := DCGAt([]float64{2, 1, 0}, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DCG = %v, want %v", got, want)
	}
	// Truncation at 1 keeps only the first gain.
	if got := DCGAt([]float64{2, 1, 0}, 1); got != 3 {
		t.Fatalf("DCG@1 = %v", got)
	}
	if DCGAt(nil, 0) != 0 {
		t.Fatal("empty DCG should be 0")
	}
}

func TestNDCGHandComputed(t *testing.T) {
	// Perfect ranking: nDCG = 1.
	if got, ok := NDCGAt([]float64{2, 1, 0}, 0); !ok || math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect nDCG = %v, %v", got, ok)
	}
	// Worst ranking of the same labels.
	worst, ok := NDCGAt([]float64{0, 1, 2}, 0)
	if !ok || worst >= 1 {
		t.Fatalf("worst nDCG = %v", worst)
	}
	wantWorst := (1/math.Log2(3) + 3/math.Log2(4)) / (3 + 1/math.Log2(3))
	if math.Abs(worst-wantWorst) > 1e-12 {
		t.Fatalf("worst nDCG = %v, want %v", worst, wantWorst)
	}
	// All-zero labels: undefined.
	if _, ok := NDCGAt([]float64{0, 0}, 0); ok {
		t.Fatal("all-zero labels should report !ok")
	}
}

func TestERRHandComputed(t *testing.T) {
	// Single maximally relevant doc at rank 1: ERR = R(2) = 3/4.
	if got := ERRAt([]float64{2}, 0); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ERR = %v, want 0.75", got)
	}
	// [2, 2]: 3/4 + (1/2)*(1/4)*(3/4).
	want := 0.75 + 0.5*0.25*0.75
	if got := ERRAt([]float64{2, 2}, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ERR = %v, want %v", got, want)
	}
	// Irrelevant-only ranking: 0.
	if got := ERRAt([]float64{0, 0, 0}, 0); got != 0 {
		t.Fatalf("ERR = %v, want 0", got)
	}
	// Truncation.
	if got := ERRAt([]float64{0, 2}, 1); got != 0 {
		t.Fatalf("ERR@1 = %v, want 0", got)
	}
}

func TestERRRankSensitivity(t *testing.T) {
	good := ERRAt([]float64{2, 0, 0}, 0)
	bad := ERRAt([]float64{0, 0, 2}, 0)
	if good <= bad {
		t.Fatalf("ERR should prefer early relevance: %v vs %v", good, bad)
	}
}

func TestEvaluate(t *testing.T) {
	// Model scores by feature 0; two queries with known best ordering.
	m := &LinearModel{W: []float64{1}, B: 0}
	data := []Instance{
		{Features: []float64{3}, Label: 2, QueryKey: "q1"},
		{Features: []float64{2}, Label: 1, QueryKey: "q1"},
		{Features: []float64{1}, Label: 0, QueryKey: "q1"},
		{Features: []float64{1}, Label: 2, QueryKey: "q2"}, // inverted
		{Features: []float64{2}, Label: 0, QueryKey: "q2"},
	}
	got := Evaluate(m, data)
	// q1 is perfectly ranked (nDCG 1), q2 inverted.
	q2ndcg, _ := NDCGAt([]float64{0, 2}, 0)
	wantNDCG := (1 + q2ndcg) / 2
	if math.Abs(got.NDCG-wantNDCG) > 1e-12 {
		t.Fatalf("Evaluate NDCG = %v, want %v", got.NDCG, wantNDCG)
	}
	wantERR := (ERRAt([]float64{2, 1, 0}, 0) + ERRAt([]float64{0, 2}, 0)) / 2
	if math.Abs(got.ERR-wantERR) > 1e-12 {
		t.Fatalf("Evaluate ERR = %v, want %v", got.ERR, wantERR)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	got := Evaluate(NewLinearModel(2), nil)
	if got.ERR != 0 || got.NDCG != 0 || got.NDCG10 != 0 {
		t.Fatalf("empty Evaluate = %+v", got)
	}
}

func TestEvaluateDeterministicTies(t *testing.T) {
	m := NewLinearModel(1) // scores everything 0: full ties
	data := []Instance{
		{Features: []float64{0}, Label: 2, QueryKey: "q"},
		{Features: []float64{0}, Label: 0, QueryKey: "q"},
	}
	a := Evaluate(m, data)
	b := Evaluate(m, data)
	if a != b {
		t.Fatal("tie-breaking is not deterministic")
	}
}

func TestGroupByQuery(t *testing.T) {
	data := []Instance{
		{QueryKey: "a"}, {QueryKey: "b"}, {QueryKey: "a"},
	}
	g := GroupByQuery(data)
	if len(g) != 2 || len(g["a"]) != 2 || len(g["b"]) != 1 {
		t.Fatalf("GroupByQuery = %v", g)
	}
}

func BenchmarkSGDEpoch(b *testing.B) {
	data, _ := synthLinear(5000, 1)
	cfg := DefaultSGDConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewLinearModel(3)
		if err := cfg.Train(m, data); err != nil {
			b.Fatal(err)
		}
	}
}
