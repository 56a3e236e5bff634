package experiments

import (
	"fmt"

	"csfltr/internal/core"
	"csfltr/internal/features"
	"csfltr/internal/federation"
	"csfltr/internal/ltr"
)

// MethodResult holds metrics for a per-party method (Local, Local+):
// one row per party plus the average row, matching Table I's layout.
type MethodResult struct {
	PerParty []ltr.Metrics
	Average  ltr.Metrics
}

// averageOf computes the mean metrics across parties.
func averageOf(per []ltr.Metrics) ltr.Metrics {
	var avg ltr.Metrics
	if len(per) == 0 {
		return avg
	}
	for _, m := range per {
		avg.ERR += m.ERR
		avg.NDCG += m.NDCG
		avg.NDCG10 += m.NDCG10
	}
	n := float64(len(per))
	avg.ERR /= n
	avg.NDCG /= n
	avg.NDCG10 /= n
	return avg
}

// Table1Result reproduces Table I: ERR / nDCG@10 / nDCG for Local (per
// party + average), Local+ (per party + average), Global and CS-F-LTR,
// all evaluated on the shared external test set.
type Table1Result struct {
	PartyNames []string
	Local      MethodResult
	LocalPlus  MethodResult
	Global     ltr.Metrics
	CSFLTR     ltr.Metrics

	// AugmentCost is the total protocol cost of generating every party's
	// augmented data.
	AugmentCost core.Cost
	// ServerTraffic is the traffic the server relayed during the run.
	ServerTraffic federation.TrafficStats
	// TrainSizes records per-party (local, augmented) instance counts.
	LocalSizes []int
	AugSizes   []int
}

// RunTable1 executes the full comparison on an initialized pipeline.
func RunTable1(p *Pipeline) (*Table1Result, error) {
	n := len(p.Fed.Parties)
	res := &Table1Result{}
	// The registry may be shared with earlier pipelines whose parties
	// carry the same names, so the run counts only what it adds.
	before := p.Fed.Server.Traffic()
	for i := 0; i < n; i++ {
		res.PartyNames = append(res.PartyNames, partyName(i))
	}
	test := p.TestData()
	if len(test) == 0 {
		return nil, fmt.Errorf("%w: empty test set", ErrBadConfig)
	}

	local := make([][]ltr.Instance, n)
	augmented := make([][]ltr.Instance, n)
	for i := 0; i < n; i++ {
		local[i] = p.LocalData(i)
		res.LocalSizes = append(res.LocalSizes, len(local[i]))
		aug, err := p.Augment(i, true)
		if err != nil {
			return nil, err
		}
		augmented[i] = aug.Instances
		res.AugSizes = append(res.AugSizes, len(aug.Instances))
		res.AugmentCost.Add(aug.Cost)
	}

	// Local: each party trains alone on its local data.
	for i := 0; i < n; i++ {
		m, nz, err := p.trainModel(local[i])
		if err != nil {
			return nil, fmt.Errorf("experiments: local model %s: %w", partyName(i), err)
		}
		res.Local.PerParty = append(res.Local.PerParty, evaluate(m, nz, test))
	}
	res.Local.Average = averageOf(res.Local.PerParty)

	// Local+: local plus own augmented data, still trained alone.
	for i := 0; i < n; i++ {
		data := append(append([]ltr.Instance(nil), local[i]...), augmented[i]...)
		m, nz, err := p.trainModel(data)
		if err != nil {
			return nil, fmt.Errorf("experiments: local+ model %s: %w", partyName(i), err)
		}
		res.LocalPlus.PerParty = append(res.LocalPlus.PerParty, evaluate(m, nz, test))
	}
	res.LocalPlus.Average = averageOf(res.LocalPlus.PerParty)

	// Global: horizontal FL over local data only (lossless features).
	gm, gnz, err := p.trainFederated(local)
	if err != nil {
		return nil, fmt.Errorf("experiments: global model: %w", err)
	}
	res.Global = evaluate(gm, gnz, test)

	// CS-F-LTR: federated training over local + augmented data.
	combined := make([][]ltr.Instance, n)
	for i := 0; i < n; i++ {
		combined[i] = append(append([]ltr.Instance(nil), local[i]...), augmented[i]...)
	}
	cm, cnz, err := p.trainFederated(combined)
	if err != nil {
		return nil, fmt.Errorf("experiments: cs-f-ltr model: %w", err)
	}
	res.CSFLTR = evaluate(cm, cnz, test)

	after := p.Fed.Server.Traffic()
	res.ServerTraffic = federation.TrafficStats{
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
	}
	return res, nil
}

// AggregatorAblation compares the paper's round-robin distributed SGD
// against federated averaging on the same augmented data — the
// alternative aggregation the paper notes is "also compatible".
type AggregatorAblation struct {
	RoundRobin ltr.Metrics
	FedAvg     ltr.Metrics
}

// RunAggregatorAblation trains CS-F-LTR's combined (local + augmented)
// per-party datasets with both aggregation strategies and evaluates on
// the shared test set.
func RunAggregatorAblation(p *Pipeline) (*AggregatorAblation, error) {
	n := len(p.Fed.Parties)
	test := p.TestData()
	combined := make([][]ltr.Instance, n)
	var all [][]float64
	for i := 0; i < n; i++ {
		local := p.LocalData(i)
		aug, err := p.Augment(i, true)
		if err != nil {
			return nil, err
		}
		combined[i] = append(local, aug.Instances...)
		for _, inst := range combined[i] {
			all = append(all, inst.Features)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("%w: no training data", ErrBadConfig)
	}
	nz := features.FitNormalizer(all)
	normed := make([][]ltr.Instance, n)
	for i, d := range combined {
		normed[i] = make([]ltr.Instance, len(d))
		for j, inst := range d {
			v := nz.Apply(append([]float64(nil), inst.Features...))
			normed[i][j] = ltr.Instance{Features: v, Label: inst.Label, QueryKey: inst.QueryKey}
		}
	}
	out := &AggregatorAblation{}
	rr, err := ltr.TrainRoundRobin(features.Dim, normed, p.Cfg.Rounds, p.Cfg.SGD)
	if err != nil {
		return nil, err
	}
	out.RoundRobin = evaluate(rr, nz, test)
	fa, err := ltr.TrainFedAvg(features.Dim, normed, p.Cfg.Rounds, p.Cfg.SGD)
	if err != nil {
		return nil, err
	}
	out.FedAvg = evaluate(fa, nz, test)
	return out, nil
}

// Fig6aPoint is one epsilon setting's result (Fig. 6a).
type Fig6aPoint struct {
	Epsilon float64
	Metrics ltr.Metrics
}

// RunFig6a sweeps the privacy budget epsilon (0 = DP off, the paper's
// convention) and reports CS-F-LTR metrics at each setting.
func RunFig6a(cfg PipelineConfig, epsilons []float64) ([]Fig6aPoint, error) {
	out := make([]Fig6aPoint, 0, len(epsilons))
	for _, eps := range epsilons {
		c := cfg
		c.Params.Epsilon = eps
		p, err := NewPipeline(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6a eps=%v: %w", eps, err)
		}
		res, err := RunTable1(p)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6a eps=%v: %w", eps, err)
		}
		out = append(out, Fig6aPoint{Epsilon: eps, Metrics: res.CSFLTR})
	}
	return out, nil
}

// Fig6bPoint is one party-count setting's result (Fig. 6b).
type Fig6bPoint struct {
	Parties int
	Metrics ltr.Metrics
}

// RunFig6b sweeps the number of *participating* parties over a fixed
// corpus and a fixed external test set: the federation always contains
// max(parties) silos, but only the first n collaborate in training (and
// only query each other during augmentation). With n=1 the run
// degenerates to party A's Local model, exactly the paper's leftmost
// point; adding parties adds training data and cross-party positives.
func RunFig6b(cfg PipelineConfig, parties []int) ([]Fig6bPoint, error) {
	if len(parties) == 0 {
		return nil, fmt.Errorf("%w: no party counts", ErrBadConfig)
	}
	maxN := 0
	for _, n := range parties {
		if n <= 0 {
			return nil, fmt.Errorf("%w: party count %d", ErrBadConfig, n)
		}
		if n > maxN {
			maxN = n
		}
	}
	c := cfg
	c.Corpus.NumParties = maxN
	if len(c.Corpus.LabelNoise) != 0 && len(c.Corpus.LabelNoise) != maxN {
		noise := make([]float64, maxN)
		for i := range noise {
			noise[i] = c.Corpus.LabelNoise[i%len(c.Corpus.LabelNoise)]
		}
		c.Corpus.LabelNoise = noise
	}
	p, err := NewPipeline(c)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig6b: %w", err)
	}
	test := p.TestData()

	out := make([]Fig6bPoint, 0, len(parties))
	for _, n := range parties {
		peers := make([]int, n)
		for i := range peers {
			peers[i] = i
		}
		combined := make([][]ltr.Instance, n)
		for i := 0; i < n; i++ {
			local := p.LocalData(i)
			if n > 1 {
				aug, err := p.AugmentAmong(i, true, peers)
				if err != nil {
					return nil, fmt.Errorf("experiments: fig6b n=%d: %w", n, err)
				}
				local = append(local, aug.Instances...)
			}
			combined[i] = local
		}
		m, nz, err := p.trainFederated(combined)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6b n=%d: %w", n, err)
		}
		out = append(out, Fig6bPoint{Parties: n, Metrics: evaluate(m, nz, test)})
	}
	return out, nil
}
