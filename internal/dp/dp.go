// Package dp implements the differential-privacy machinery of CS-F-LTR.
//
// Section IV-B (Step 3) of the paper perturbs every sketch lookup with a
// single Laplace noise draw Ñ ~ Lap(1/ε) before it leaves the document
// owner, and Theorem 1 shows the resulting point-query mechanism satisfies
// ε-DP in the sketch-specific sense of Definition 4. This package provides
// the Laplace mechanism, a discrete (two-sided geometric) variant, and a
// per-peer privacy accountant that tracks cumulative budget under
// sequential composition.
//
// Conventions: following the paper's Figure 6a we "abuse ε = 0 to
// represent the case that DP is not applied"; Disabled() returns a
// mechanism that adds no noise, and NewLaplace rejects ε <= 0 so the two
// cases cannot be confused silently.
package dp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Errors returned by this package.
var (
	ErrBadEpsilon     = errors.New("dp: epsilon must be positive")
	ErrBadSensitivity = errors.New("dp: sensitivity must be positive")
	ErrBudgetExceeded = errors.New("dp: privacy budget exceeded")
)

// Mechanism perturbs a numeric query answer to provide differential
// privacy. Implementations are safe for concurrent use only if their
// underlying random source is.
type Mechanism interface {
	// Perturb returns x plus mechanism noise.
	Perturb(x float64) float64
	// Sample returns one noise draw (Perturb(0)).
	Sample() float64
	// Epsilon returns the per-invocation privacy cost (0 for Disabled).
	Epsilon() float64
}

// Laplace is the Laplace mechanism with scale sensitivity/epsilon.
type Laplace struct {
	epsilon float64
	scale   float64
	rng     *rand.Rand
}

// NewLaplace builds a Laplace mechanism for a query with the given
// sensitivity and privacy budget epsilon. The paper's TF scheme uses
// sensitivity 1 (one term changes one counter by one, up to the hash
// collision argument of Theorem 1). rng must not be nil.
func NewLaplace(epsilon, sensitivity float64, rng *rand.Rand) (*Laplace, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadEpsilon, epsilon)
	}
	if sensitivity <= 0 || math.IsNaN(sensitivity) || math.IsInf(sensitivity, 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadSensitivity, sensitivity)
	}
	if rng == nil {
		return nil, errors.New("dp: rng must not be nil")
	}
	return &Laplace{epsilon: epsilon, scale: sensitivity / epsilon, rng: rng}, nil
}

// Scale returns the Laplace scale parameter b = sensitivity/epsilon.
func (l *Laplace) Scale() float64 { return l.scale }

// Epsilon returns the per-invocation privacy cost.
func (l *Laplace) Epsilon() float64 { return l.epsilon }

// Sample draws one Lap(0, b) variate by inverse-CDF sampling.
func (l *Laplace) Sample() float64 { return SampleLaplace(l.rng, l.scale) }

// Perturb returns x + Lap(0, b).
func (l *Laplace) Perturb(x float64) float64 { return x + l.Sample() }

// SampleLaplace draws a Laplace(0, scale) variate from rng using the
// inverse CDF: for u ~ U(-1/2, 1/2), x = -b * sign(u) * ln(1 - 2|u|).
func SampleLaplace(rng *rand.Rand, scale float64) float64 {
	u := rng.Float64() - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}

// Geometric is the two-sided geometric (discrete Laplace) mechanism, the
// integer-valued analogue of Laplace. Useful when perturbed counters must
// remain integers; it satisfies ε-DP for sensitivity-1 counting queries.
type Geometric struct {
	epsilon float64
	alpha   float64 // e^{-epsilon/sensitivity}
	rng     *rand.Rand
}

// NewGeometric builds a two-sided geometric mechanism.
func NewGeometric(epsilon, sensitivity float64, rng *rand.Rand) (*Geometric, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadEpsilon, epsilon)
	}
	if sensitivity <= 0 {
		return nil, fmt.Errorf("%w (got %v)", ErrBadSensitivity, sensitivity)
	}
	if rng == nil {
		return nil, errors.New("dp: rng must not be nil")
	}
	return &Geometric{epsilon: epsilon, alpha: math.Exp(-epsilon / sensitivity), rng: rng}, nil
}

// Epsilon returns the per-invocation privacy cost.
func (g *Geometric) Epsilon() float64 { return g.epsilon }

// Sample draws an integer-valued two-sided geometric variate.
// Pr[X = k] = (1-alpha)/(1+alpha) * alpha^{|k|}.
func (g *Geometric) Sample() float64 {
	// Sample magnitude from a geometric distribution and a fair sign,
	// handling the double-counted zero by rejection.
	for {
		u := g.rng.Float64()
		// Geometric magnitude: smallest k >= 0 with 1-alpha^{k+1} > u.
		k := math.Floor(math.Log(1-u) / math.Log(g.alpha))
		if math.IsNaN(k) || k < 0 {
			k = 0
		}
		if g.rng.Intn(2) == 0 {
			return k
		}
		if k == 0 {
			continue // zero must not be drawn twice as often
		}
		return -k
	}
}

// Perturb returns x plus integer geometric noise.
func (g *Geometric) Perturb(x float64) float64 { return x + g.Sample() }

// disabled is the no-op mechanism standing in for "DP off" (ε = 0 in the
// paper's Figure 6a).
type disabled struct{}

// Disabled returns a Mechanism that adds no noise and reports Epsilon()==0.
func Disabled() Mechanism { return disabled{} }

func (disabled) Perturb(x float64) float64 { return x }
func (disabled) Sample() float64           { return 0 }
func (disabled) Epsilon() float64          { return 0 }

// ForEpsilon returns the mechanism the CS-F-LTR protocol uses at privacy
// budget eps: Disabled() when eps == 0 (the paper's convention) and a
// sensitivity-1 Laplace mechanism otherwise.
func ForEpsilon(eps float64, rng *rand.Rand) (Mechanism, error) {
	if eps == 0 {
		return Disabled(), nil
	}
	return NewLaplace(eps, 1, rng)
}

// Accountant tracks cumulative privacy spending per peer under sequential
// composition: total cost is the sum of per-query epsilons. It is safe for
// concurrent use.
type Accountant struct {
	mu      sync.Mutex
	budget  float64 // 0 means unlimited
	spent   map[string]float64
	replays map[string]int64
}

// NewAccountant creates an accountant with the given total per-peer
// budget. A budget of 0 means "track but never refuse".
func NewAccountant(budget float64) *Accountant {
	return &Accountant{
		budget:  budget,
		spent:   make(map[string]float64),
		replays: make(map[string]int64),
	}
}

// Spend records a query against peer costing eps, returning
// ErrBudgetExceeded (without recording) if it would overrun the budget.
func (a *Accountant) Spend(peer string, eps float64) error {
	if eps < 0 {
		return fmt.Errorf("%w: negative spend %v", ErrBadEpsilon, eps)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget > 0 && a.spent[peer]+eps > a.budget {
		return fmt.Errorf("%w: peer %q spent %.4f of %.4f, requested %.4f",
			ErrBudgetExceeded, peer, a.spent[peer], a.budget, eps)
	}
	a.spent[peer] += eps
	return nil
}

// Spent returns the cumulative epsilon spent against peer.
func (a *Accountant) Spent(peer string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent[peer]
}

// Replayed records that a previously released answer from peer was
// served again — the zero-spend replay path. Differential privacy is
// closed under post-processing: once a noisy answer has been released,
// re-serving those exact bytes (e.g. from the federated answer cache)
// reveals nothing further about peer's data, so the spend is zero.
// Replays are counted separately so experiments can report how much of
// the workload was answered without touching the budget.
func (a *Accountant) Replayed(peer string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.replays[peer]++
}

// PeerSpend is one peer's row in a Ledger snapshot.
type PeerSpend struct {
	Peer    string  `json:"peer"`
	Spent   float64 `json:"spent"`
	Replays int64   `json:"replays"`
}

// Ledger returns a consistent point-in-time snapshot of the accountant's
// per-peer state — every peer that has ever been spent against or
// replayed from, sorted by name. This is the reconciliation surface the
// federation's per-query audit records are checked against: summing the
// audit ledger's epsilon per peer must reproduce each row's Spent
// exactly (cache replays contribute zero).
func (a *Accountant) Ledger() []PeerSpend {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make(map[string]struct{}, len(a.spent))
	for p := range a.spent {
		names[p] = struct{}{}
	}
	for p := range a.replays {
		names[p] = struct{}{}
	}
	out := make([]PeerSpend, 0, len(names))
	for p := range names {
		out = append(out, PeerSpend{Peer: p, Spent: a.spent[p], Replays: a.replays[p]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Remaining returns the unspent budget for peer, or +Inf when unlimited.
func (a *Accountant) Remaining(peer string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget == 0 {
		return math.Inf(1)
	}
	r := a.budget - a.spent[peer]
	if r < 0 {
		r = 0
	}
	return r
}
