package embed

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// twoClusters samples n points from two well-separated Gaussians in d
// dimensions, returning points and binary labels.
func twoClusters(n, d int, gap float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	labels := make([]int, n)
	for i := range x {
		x[i] = make([]float64, d)
		off := 0.0
		if i%2 == 0 {
			off = gap
			labels[i] = 1
		}
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
			if j == 0 {
				x[i][j] += off
			}
		}
	}
	return x, labels
}

func TestValidateMatrix(t *testing.T) {
	if _, _, err := validateMatrix(nil); !errors.Is(err, ErrBadInput) {
		t.Fatal("nil matrix should error")
	}
	if _, _, err := validateMatrix([][]float64{{}}); !errors.Is(err, ErrBadInput) {
		t.Fatal("zero-dim rows should error")
	}
	if _, _, err := validateMatrix([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrBadInput) {
		t.Fatal("ragged matrix should error")
	}
	n, d, err := validateMatrix([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil || n != 3 || d != 2 {
		t.Fatalf("validateMatrix = %d,%d,%v", n, d, err)
	}
}

func TestTSNEConfigValidate(t *testing.T) {
	if err := DefaultTSNEConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*TSNEConfig){
		func(c *TSNEConfig) { c.Perplexity = 1 },
		func(c *TSNEConfig) { c.Iterations = 0 },
		func(c *TSNEConfig) { c.LearningRate = 0 },
		func(c *TSNEConfig) { c.Momentum = 1 },
		func(c *TSNEConfig) { c.Exaggeration = 0.5 },
		func(c *TSNEConfig) { c.ExaggerateFor = -1 },
		func(c *TSNEConfig) { c.ExaggerateFor = c.Iterations + 1 },
	}
	for i, mut := range bad {
		c := DefaultTSNEConfig()
		mut(&c)
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("case %d: expected ErrBadConfig, got %v", i, err)
		}
	}
}

// knnPurity is the fraction of points whose nearest neighbour shares
// their label — a robust check that an embedding preserved cluster
// structure.
func knnPurity(y [][]float64, labels []int) float64 {
	n := len(y)
	match := 0
	for i := 0; i < n; i++ {
		best := -1
		bestD := math.Inf(1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx := y[i][0] - y[j][0]
			dy := y[i][1] - y[j][1]
			d := dx*dx + dy*dy
			if d < bestD {
				bestD = d
				best = j
			}
		}
		if (labels[i] > 0) == (labels[best] > 0) {
			match++
		}
	}
	return float64(match) / float64(n)
}

func TestTSNESeparatesClusters(t *testing.T) {
	x, labels := twoClusters(120, 10, 12, 5)
	cfg := DefaultTSNEConfig()
	cfg.Iterations = 300
	y, err := TSNE(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != len(x) || len(y[0]) != 2 {
		t.Fatalf("embedding shape wrong: %d x %d", len(y), len(y[0]))
	}
	for _, p := range y {
		if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
			t.Fatal("t-SNE produced non-finite coordinates")
		}
	}
	if purity := knnPurity(y, labels); purity < 0.9 {
		t.Fatalf("embedding lost cluster structure: 1-NN purity %v", purity)
	}
}

func TestTSNETinyInput(t *testing.T) {
	// Fewer points than 3*perplexity: should shrink perplexity, not fail.
	x, _ := twoClusters(12, 4, 8, 2)
	cfg := DefaultTSNEConfig()
	cfg.Iterations = 50
	if _, err := TSNE(x, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTSNEValidation(t *testing.T) {
	if _, err := TSNE(nil, DefaultTSNEConfig()); !errors.Is(err, ErrBadInput) {
		t.Fatal("empty input should error")
	}
	x, _ := twoClusters(20, 3, 5, 1)
	cfg := DefaultTSNEConfig()
	cfg.Iterations = 0
	if _, err := TSNE(x, cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatal("bad config should error")
	}
}

func TestSeparateOnSeparatedClusters(t *testing.T) {
	x, labels := twoClusters(200, 6, 10, 7)
	s, err := Separate(x, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProbeAccuracy < 0.95 {
		t.Fatalf("probe accuracy %v on well-separated clusters", s.ProbeAccuracy)
	}
	if s.CentroidMargin < 2 {
		t.Fatalf("centroid margin %v too small", s.CentroidMargin)
	}
	if s.Silhouette < 0.3 {
		t.Fatalf("silhouette %v too small", s.Silhouette)
	}
}

func TestSeparateOnNoise(t *testing.T) {
	// Same distribution for both classes: probes should hover near chance.
	rng := rand.New(rand.NewSource(9))
	n := 300
	x := make([][]float64, n)
	labels := make([]int, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		labels[i] = i % 2
	}
	s, err := Separate(x, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProbeAccuracy > 0.65 {
		t.Fatalf("probe accuracy %v on pure noise (overfit?)", s.ProbeAccuracy)
	}
	if math.Abs(s.Silhouette) > 0.1 {
		t.Fatalf("silhouette %v on pure noise", s.Silhouette)
	}
}

// TestSeparationOrdering: the probes must rank a clean configuration
// above a noisy one — the property the Fig. 5 reproduction relies on.
func TestSeparationOrdering(t *testing.T) {
	clean, labels := twoClusters(200, 4, 8, 11)
	noisy := make([][]float64, len(clean))
	rng := rand.New(rand.NewSource(13))
	for i, row := range clean {
		noisy[i] = make([]float64, len(row))
		for j, v := range row {
			noisy[i][j] = v + rng.NormFloat64()*8
		}
	}
	sClean, err := Separate(clean, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	sNoisy, err := Separate(noisy, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sClean.ProbeAccuracy <= sNoisy.ProbeAccuracy {
		t.Fatalf("probe accuracy ordering violated: %v <= %v", sClean.ProbeAccuracy, sNoisy.ProbeAccuracy)
	}
	if sClean.CentroidMargin <= sNoisy.CentroidMargin {
		t.Fatalf("margin ordering violated: %v <= %v", sClean.CentroidMargin, sNoisy.CentroidMargin)
	}
	if sClean.Silhouette <= sNoisy.Silhouette {
		t.Fatalf("silhouette ordering violated: %v <= %v", sClean.Silhouette, sNoisy.Silhouette)
	}
}

func TestSeparateValidation(t *testing.T) {
	x := [][]float64{{1}, {2}}
	if _, err := Separate(x, []int{1}, 1); !errors.Is(err, ErrBadInput) {
		t.Fatal("label length mismatch should error")
	}
	if _, err := Separate(x, []int{1, 1}, 1); !errors.Is(err, ErrBadInput) {
		t.Fatal("single-class input should error")
	}
	if _, err := Separate(nil, nil, 1); !errors.Is(err, ErrBadInput) {
		t.Fatal("empty input should error")
	}
}

func BenchmarkTSNE200(b *testing.B) {
	x, _ := twoClusters(200, 16, 6, 1)
	cfg := DefaultTSNEConfig()
	cfg.Iterations = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TSNE(x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
