package ltr

import (
	"fmt"
	"math"
	"math/rand"
)

// Loss selects the pointwise training objective.
type Loss int

const (
	// SquaredLoss regresses the graded relevance label directly; the
	// default pointwise objective.
	SquaredLoss Loss = iota
	// LogisticLoss treats label > 0 as the positive class and trains a
	// binary classifier whose score ranks documents.
	LogisticLoss
)

// SGDConfig configures (mini-batch) stochastic gradient descent.
type SGDConfig struct {
	LearningRate float64 // initial step size
	LRDecay      float64 // multiplicative per-epoch decay (1 = constant)
	Epochs       int     // passes over the data
	BatchSize    int     // mini-batch size
	L2           float64 // L2 regularization strength (0 = off)
	Loss         Loss
	Seed         int64 // shuffling seed
}

// DefaultSGDConfig returns a setting that trains the 16-feature linear
// model reliably on normalized features.
func DefaultSGDConfig() SGDConfig {
	return SGDConfig{
		LearningRate: 0.05,
		LRDecay:      0.97,
		Epochs:       30,
		BatchSize:    32,
		L2:           1e-4,
		Loss:         SquaredLoss,
		Seed:         1,
	}
}

// Validate reports whether the configuration is usable.
func (c SGDConfig) Validate() error {
	switch {
	case c.LearningRate <= 0 || math.IsNaN(c.LearningRate):
		return fmt.Errorf("%w: LearningRate=%v", ErrBadConfig, c.LearningRate)
	case c.LRDecay <= 0 || c.LRDecay > 1:
		return fmt.Errorf("%w: LRDecay=%v", ErrBadConfig, c.LRDecay)
	case c.Epochs <= 0:
		return fmt.Errorf("%w: Epochs=%d", ErrBadConfig, c.Epochs)
	case c.BatchSize <= 0:
		return fmt.Errorf("%w: BatchSize=%d", ErrBadConfig, c.BatchSize)
	case c.L2 < 0:
		return fmt.Errorf("%w: L2=%v", ErrBadConfig, c.L2)
	case c.Loss != SquaredLoss && c.Loss != LogisticLoss:
		return fmt.Errorf("%w: unknown loss %d", ErrBadConfig, int(c.Loss))
	}
	return nil
}

// gradScale returns dL/dscore for one instance under the configured loss.
func (c SGDConfig) gradScale(score, label float64) float64 {
	switch c.Loss {
	case LogisticLoss:
		y := 0.0
		if label > 0 {
			y = 1
		}
		p := sigmoid(score)
		return p - y
	default:
		return score - label
	}
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Train runs mini-batch SGD on model over data, in place. The caller owns
// model initialization (zero or warm start).
func (c SGDConfig) Train(model *LinearModel, data []Instance) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("%w: empty training set", ErrBadData)
	}
	for _, inst := range data {
		if len(inst.Features) != model.Dim() {
			return fmt.Errorf("%w: instance dim %d vs model dim %d",
				ErrBadData, len(inst.Features), model.Dim())
		}
	}
	rng := rand.New(rand.NewSource(c.Seed))
	order := rng.Perm(len(data))
	lr := c.LearningRate
	gradW := make([]float64, model.Dim())
	for epoch := 0; epoch < c.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += c.BatchSize {
			end := start + c.BatchSize
			if end > len(order) {
				end = len(order)
			}
			for i := range gradW {
				gradW[i] = 0
			}
			gradB := 0.0
			for _, oi := range order[start:end] {
				inst := data[oi]
				g := clampFinite(c.gradScale(model.Score(inst.Features), inst.Label))
				for i, x := range inst.Features {
					gradW[i] += g * x
				}
				gradB += g
			}
			inv := 1 / float64(end-start)
			for i := range model.W {
				model.W[i] -= lr * (gradW[i]*inv + c.L2*model.W[i])
			}
			model.B -= lr * gradB * inv
		}
		lr *= c.LRDecay
	}
	return nil
}

// TrainRoundRobin trains a single global model over per-party datasets
// with the paper's round-robin distributed SGD: in each round, parties
// take turns receiving the current global weights, running one local
// epoch on their own data, and passing the updated weights on (through
// the coordinating server in the deployed protocol). rounds full cycles
// are performed.
func TrainRoundRobin(dim int, partyData [][]Instance, rounds int, cfg SGDConfig) (*LinearModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rounds <= 0 {
		return nil, fmt.Errorf("%w: rounds=%d", ErrBadConfig, rounds)
	}
	nonEmpty := 0
	for _, d := range partyData {
		nonEmpty += len(d)
	}
	if nonEmpty == 0 {
		return nil, fmt.Errorf("%w: all parties empty", ErrBadData)
	}
	model := NewLinearModel(dim)
	local := cfg
	local.Epochs = 1
	// Visit parties in a fresh random order each round: with a fixed
	// order the model drifts toward whichever party trains last, which
	// systematically biases the global model toward one silo's data
	// quality.
	orderRNG := rand.New(rand.NewSource(cfg.Seed + 7))
	order := make([]int, len(partyData))
	for i := range order {
		order[i] = i
	}
	for r := 0; r < rounds; r++ {
		local.LearningRate = cfg.LearningRate * math.Pow(cfg.LRDecay, float64(r))
		orderRNG.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, pi := range order {
			d := partyData[pi]
			if len(d) == 0 {
				continue
			}
			local.Seed = cfg.Seed + int64(r*len(partyData)+pi)
			if err := local.Train(model, d); err != nil {
				return nil, fmt.Errorf("ltr: round %d party %d: %w", r, pi, err)
			}
		}
	}
	return model, nil
}

// TrainFedAvg trains with federated averaging as an alternative
// aggregation strategy (the paper notes "other sophisticated methods are
// also compatible"): each round every party trains a copy of the global
// model locally for one epoch and the server averages the results.
func TrainFedAvg(dim int, partyData [][]Instance, rounds int, cfg SGDConfig) (*LinearModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rounds <= 0 {
		return nil, fmt.Errorf("%w: rounds=%d", ErrBadConfig, rounds)
	}
	model := NewLinearModel(dim)
	local := cfg
	local.Epochs = 1
	for r := 0; r < rounds; r++ {
		local.LearningRate = cfg.LearningRate * math.Pow(cfg.LRDecay, float64(r))
		var updated []*LinearModel
		for pi, d := range partyData {
			if len(d) == 0 {
				continue
			}
			m := model.Clone()
			local.Seed = cfg.Seed + int64(r*len(partyData)+pi)
			if err := local.Train(m, d); err != nil {
				return nil, fmt.Errorf("ltr: fedavg round %d party %d: %w", r, pi, err)
			}
			updated = append(updated, m)
		}
		avg, err := average(updated)
		if err != nil {
			return nil, err
		}
		model = avg
	}
	return model, nil
}
