// Package embed provides the 2-D embedding machinery behind the paper's
// Fig. 5 ("we embed the points into 2D plane with TSNE"): a from-scratch
// exact t-SNE and quantitative separability probes. The paper's claim —
// "the boundary is still discernible after applying Count sketch" — is
// visual; the probes (linear-probe accuracy, centroid margin, silhouette)
// turn it into numbers the benchmark harness can report and tests can
// assert on.
package embed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Errors returned by this package.
var (
	ErrBadInput  = errors.New("embed: invalid input")
	ErrBadConfig = errors.New("embed: invalid configuration")
)

// validateMatrix checks X is non-empty and rectangular, returning its
// dimensions.
func validateMatrix(x [][]float64) (n, d int, err error) {
	if len(x) == 0 {
		return 0, 0, fmt.Errorf("%w: empty matrix", ErrBadInput)
	}
	d = len(x[0])
	if d == 0 {
		return 0, 0, fmt.Errorf("%w: zero-dimensional rows", ErrBadInput)
	}
	for i, row := range x {
		if len(row) != d {
			return 0, 0, fmt.Errorf("%w: row %d has %d columns, want %d", ErrBadInput, i, len(row), d)
		}
	}
	return len(x), d, nil
}

// center returns a copy of x with the column means subtracted.
func center(x [][]float64) [][]float64 {
	n, d, _ := validateMatrix(x)
	mean := make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	out := make([][]float64, n)
	for i, row := range x {
		out[i] = make([]float64, d)
		for j, v := range row {
			out[i][j] = v - mean[j]
		}
	}
	return out
}

// TSNEConfig configures the exact t-SNE optimizer.
type TSNEConfig struct {
	Perplexity    float64 // effective neighbour count (5-50 typical)
	Iterations    int     // gradient steps
	LearningRate  float64
	Momentum      float64
	Exaggeration  float64 // early-exaggeration factor
	ExaggerateFor int     // iterations under exaggeration
	Seed          int64
}

// DefaultTSNEConfig returns a setting suitable for a few hundred points
// (the paper samples 400 instances).
func DefaultTSNEConfig() TSNEConfig {
	return TSNEConfig{
		Perplexity:    30,
		Iterations:    500,
		LearningRate:  100,
		Momentum:      0.8,
		Exaggeration:  4,
		ExaggerateFor: 100,
		Seed:          1,
	}
}

// Validate reports whether the configuration is usable.
func (c TSNEConfig) Validate() error {
	switch {
	case c.Perplexity <= 1:
		return fmt.Errorf("%w: Perplexity=%v", ErrBadConfig, c.Perplexity)
	case c.Iterations <= 0:
		return fmt.Errorf("%w: Iterations=%d", ErrBadConfig, c.Iterations)
	case c.LearningRate <= 0:
		return fmt.Errorf("%w: LearningRate=%v", ErrBadConfig, c.LearningRate)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("%w: Momentum=%v", ErrBadConfig, c.Momentum)
	case c.Exaggeration < 1:
		return fmt.Errorf("%w: Exaggeration=%v", ErrBadConfig, c.Exaggeration)
	case c.ExaggerateFor < 0 || c.ExaggerateFor > c.Iterations:
		return fmt.Errorf("%w: ExaggerateFor=%d", ErrBadConfig, c.ExaggerateFor)
	}
	return nil
}

// TSNE embeds x into 2 dimensions with exact (O(n^2)) t-SNE.
func TSNE(x [][]float64, cfg TSNEConfig) ([][]float64, error) {
	n, _, err := validateMatrix(x)
	if err != nil {
		return nil, err
	}
	if cfg.ExaggerateFor > cfg.Iterations {
		cfg.ExaggerateFor = cfg.Iterations
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if float64(n) <= 3*cfg.Perplexity {
		// Shrink perplexity for tiny inputs instead of failing.
		cfg.Perplexity = math.Max(2, float64(n)/3-1)
	}
	p := joint(x, cfg.Perplexity)
	rng := rand.New(rand.NewSource(cfg.Seed))
	y := make([][]float64, n)
	vel := make([][]float64, n)
	for i := range y {
		y[i] = []float64{rng.NormFloat64() * 1e-2, rng.NormFloat64() * 1e-2}
		vel[i] = []float64{0, 0}
	}
	grad := make([][]float64, n)
	for i := range grad {
		grad[i] = []float64{0, 0}
	}
	q := make([]float64, n*n)
	for iter := 0; iter < cfg.Iterations; iter++ {
		exag := 1.0
		if iter < cfg.ExaggerateFor {
			exag = cfg.Exaggeration
		}
		// Student-t affinities in the embedding.
		var sumQ float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := y[i][0] - y[j][0]
				dy := y[i][1] - y[j][1]
				v := 1 / (1 + dx*dx + dy*dy)
				q[i*n+j] = v
				q[j*n+i] = v
				sumQ += 2 * v
			}
		}
		if sumQ < 1e-12 {
			sumQ = 1e-12
		}
		for i := 0; i < n; i++ {
			grad[i][0], grad[i][1] = 0, 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				pij := exag * p[i*n+j]
				qij := q[i*n+j] / sumQ
				mult := 4 * (pij - qij) * q[i*n+j]
				grad[i][0] += mult * (y[i][0] - y[j][0])
				grad[i][1] += mult * (y[i][1] - y[j][1])
			}
		}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				vel[i][k] = cfg.Momentum*vel[i][k] - cfg.LearningRate*grad[i][k]
				y[i][k] += vel[i][k]
			}
		}
	}
	return y, nil
}

// joint computes the symmetrized high-dimensional affinity matrix with
// per-point bandwidths found by binary search to match the perplexity.
func joint(x [][]float64, perplexity float64) []float64 {
	n := len(x)
	d2 := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := 0.0
			for k := range x[i] {
				diff := x[i][k] - x[j][k]
				s += diff * diff
			}
			d2[i*n+j] = s
			d2[j*n+i] = s
		}
	}
	target := math.Log(perplexity)
	p := make([]float64, n*n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := 1e-20, 1e20
		beta := 1.0
		for iter := 0; iter < 64; iter++ {
			var sum, hSum float64
			for j := 0; j < n; j++ {
				if j == i {
					row[j] = 0
					continue
				}
				v := math.Exp(-d2[i*n+j] * beta)
				row[j] = v
				sum += v
				hSum += v * d2[i*n+j]
			}
			if sum < 1e-300 {
				hi = beta
				beta = (lo + hi) / 2
				continue
			}
			// Shannon entropy of the conditional distribution.
			h := math.Log(sum) + beta*hSum/sum
			if math.Abs(h-target) < 1e-5 {
				break
			}
			if h > target {
				lo = beta
				if hi > 1e19 {
					beta *= 2
				} else {
					beta = (lo + hi) / 2
				}
			} else {
				hi = beta
				beta = (lo + hi) / 2
			}
		}
		var sum float64
		for j := 0; j < n; j++ {
			sum += row[j]
		}
		if sum < 1e-300 {
			sum = 1e-300
		}
		for j := 0; j < n; j++ {
			p[i*n+j] = row[j] / sum
		}
	}
	// Symmetrize and normalize.
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := (p[i*n+j] + p[j*n+i]) / (2 * float64(n))
			if v < 1e-12 {
				v = 1e-12
			}
			out[i*n+j] = v
		}
	}
	return out
}
