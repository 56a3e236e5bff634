package experiments

import (
	"fmt"
	"io"

	"csfltr/internal/features"
	"csfltr/internal/ltr"
)

// TrainedModel bundles a trained CS-F-LTR ranking model with the feature
// normalizer it requires and the metrics it achieved on the pipeline's
// external test set.
type TrainedModel struct {
	Model       *ltr.LinearModel
	Norm        *features.Normalizer
	TestMetrics ltr.Metrics
}

// TrainCSFLTR runs the full CS-F-LTR training path on an initialized
// pipeline — local data plus privacy-preserving cross-party augmentation
// for every party, round-robin distributed SGD — and evaluates on the
// external test set. This is the entry point for callers that want the
// model itself rather than the Table-I comparison.
func TrainCSFLTR(p *Pipeline) (*TrainedModel, error) {
	n := len(p.Fed.Parties)
	combined := make([][]ltr.Instance, n)
	for i := 0; i < n; i++ {
		local := p.LocalData(i)
		aug, err := p.Augment(i, true)
		if err != nil {
			return nil, err
		}
		combined[i] = append(local, aug.Instances...)
	}
	m, nz, err := p.trainFederated(combined)
	if err != nil {
		return nil, err
	}
	return &TrainedModel{
		Model:       m,
		Norm:        nz,
		TestMetrics: evaluate(m, nz, p.TestData()),
	}, nil
}

// WriteTo persists the model and its normalizer as one stream.
func (t *TrainedModel) WriteTo(w io.Writer) (int64, error) {
	n1, err := t.Model.WriteTo(w)
	if err != nil {
		return n1, fmt.Errorf("experiments: writing model: %w", err)
	}
	n2, err := t.Norm.WriteTo(w)
	if err != nil {
		return n1 + n2, fmt.Errorf("experiments: writing normalizer: %w", err)
	}
	return n1 + n2, nil
}

// ReadTrainedModel restores a model persisted with WriteTo. TestMetrics
// are not persisted (they belong to the training-time test set).
func ReadTrainedModel(r io.Reader) (*TrainedModel, error) {
	m, err := ltr.ReadModel(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: reading model: %w", err)
	}
	nz, err := features.ReadNormalizer(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: reading normalizer: %w", err)
	}
	return &TrainedModel{Model: m, Norm: nz}, nil
}

// EvaluateTrained scores a trained model against a pipeline's external
// test set (e.g. a freshly generated corpus with the same seed, or a
// different seed for out-of-distribution evaluation).
func EvaluateTrained(t *TrainedModel, p *Pipeline) ltr.Metrics {
	return evaluate(t.Model, t.Norm, p.TestData())
}
