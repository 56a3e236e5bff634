package federation

import (
	"errors"
	"fmt"
	"io"
	"math"

	"csfltr/internal/keyex"
	"csfltr/internal/ltr"
	"csfltr/internal/secagg"
	"csfltr/internal/telemetry"
)

// ErrSecAggQuorum is returned when a secure round loses so many parties
// that the surviving submitter count falls below the quorum threshold.
var ErrSecAggQuorum = errors.New("federation: secure aggregation below quorum")

// SecAggOptions configures Federation.TrainSecureFedAvg. The zero value
// is usable: default quantization grid, crypto/rand key-agreement
// entropy, quorum from Params.MinParties.
type SecAggOptions struct {
	// Quant is the fixed-point grid shared by every party. Zero value
	// means secagg.DefaultConfig().
	Quant secagg.Config
	// Entropy feeds the pairwise DH ceremony (nil = crypto/rand). Tests
	// pass keyex.SeededEntropy for reproducible mask material; the
	// learned model does not depend on it either way, because pairwise
	// masks cancel exactly in the ring.
	Entropy io.Reader
	// Threshold is the minimum number of surviving submitters needed to
	// release a round (t of N). 0 means max(1, Params.MinParties).
	Threshold int
}

// SecAggStats reports what a secure training run cost. Hops and bytes
// are read back from the server's relay counters (op="secagg"), so
// secure-training traffic is accounted in exactly one place, like query
// relays and round-robin hops.
type SecAggStats struct {
	Rounds     int
	Recoveries int // dropped parties cancelled via seed reveals
	Drops      int // submissions lost to faults (before recovery)
	ModelHops  int // masked updates + seed reveals relayed
	// BytesRelayed is all op="secagg" relay bytes; MaskedBytes and
	// RevealBytes split it by message type.
	BytesRelayed    int64
	MaskedBytes     int64
	RevealBytes     int64
	Retries         int     // submission attempts beyond the first
	QuantErrorBound float64 // worst-case per-weight error of each aggregate
}

// TrainSecureFedAvg trains with federated averaging where the
// coordinating server never sees a plaintext model update: each round,
// every active party trains a clone of the global model locally, masks
// its quantized weights with per-round pairwise mask streams derived
// from the DH secrets (secagg), and submits only the masked vector. The
// server sums the submissions blind; the masks cancel exactly in the
// ring, so the released average equals the plaintext federated average
// within the quantization bound.
//
// Submissions pass through the chaos interceptor and the federation's
// retry policy and per-party breakers. A party whose submission fails
// permanently is dropped from the round: the surviving submitters
// reveal the per-round pairwise seeds they share with it, the server
// reconstructs and cancels its residual masks, and the round completes
// over the survivors (t-of-N recovery). The round fails only if the
// survivor count falls below the quorum threshold or a reveal cannot be
// obtained.
func (f *Federation) TrainSecureFedAvg(dim int, data map[string][]ltr.Instance, rounds int, cfg ltr.SGDConfig, opts SecAggOptions) (*ltr.LinearModel, SecAggStats, error) {
	var stats SecAggStats
	if err := cfg.Validate(); err != nil {
		return nil, stats, err
	}
	if rounds <= 0 {
		return nil, stats, fmt.Errorf("ltr round count must be positive, got %d", rounds)
	}
	quant := opts.Quant
	if quant == (secagg.Config{}) {
		quant = secagg.DefaultConfig()
	}
	if err := quant.Validate(); err != nil {
		return nil, stats, err
	}
	names := f.Server.PartyNames()
	n := len(names)
	total := 0
	for _, name := range names {
		total += len(data[name])
	}
	if total == 0 {
		return nil, stats, ErrNoTrainingData
	}
	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = 1
		if f.Params.MinParties > threshold {
			threshold = f.Params.MinParties
		}
	}

	// Key agreement: every pair of parties derives a shared secret; only
	// public keys would travel through the server in the deployed flow.
	secrets, err := keyex.AgreePairwise(n, opts.Entropy)
	if err != nil {
		return nil, stats, err
	}
	maskers := make([]*secagg.Masker, n)
	for i := range maskers {
		mk, err := secagg.NewMasker(i, secrets[i])
		if err != nil {
			return nil, stats, err
		}
		maskers[i] = mk
	}

	model := ltr.NewLinearModel(dim)
	local := cfg
	local.Epochs = 1
	m := f.Server.metrics()
	startHops, startBytes := f.Server.traffic(opSecAgg)
	startRetries := trainRetriesTotal(m, names)
	stats.QuantErrorBound = quant.ErrorBound(n)
	msgN := uint64(0) // chaos-stream discriminator across all messages

	for r := 0; r < rounds; r++ {
		round := m.reg.StartChildSpan("training.round", telemetry.SpanContext{}, m.roundDur)
		local.LearningRate = cfg.LearningRate * math.Pow(cfg.LRDecay, float64(r))

		// Roster for this round: parties with data whose breaker admits
		// calls. Every masker must use the identical roster, so it is
		// fixed before any submission.
		active := make([]bool, n)
		activeCount := 0
		for i, name := range names {
			if len(data[name]) > 0 && f.breakerFor(name).Allow() {
				active[i] = true
				activeCount++
			}
		}
		if activeCount < threshold {
			round.End()
			return nil, stats, fmt.Errorf("%w: %d active of %d required at round %d",
				ErrSecAggQuorum, activeCount, threshold, r)
		}
		agg, err := secagg.NewAggregator(dim+1, active)
		if err != nil {
			round.End()
			return nil, stats, err
		}

		// Local training + masking + submission, party by party.
		var dropped []int
		for i, name := range names {
			if !active[i] {
				continue
			}
			clone := model.Clone()
			local.Seed = cfg.Seed + int64(r*n+i)
			if err := local.Train(clone, data[name]); err != nil {
				round.End()
				return nil, stats, fmt.Errorf("federation: secure round %d party %s: %w", r, name, err)
			}
			maskSpan := m.reg.StartChildSpan("secagg."+StageSecAggMask, telemetry.SpanContext{},
				m.histogram(MetricSecAggStageDuration, telemetry.L("stage", StageSecAggMask)))
			update := make(secagg.RawUpdate, 0, dim+1)
			update = append(update, clone.W...)
			update = append(update, clone.B)
			masked, err := maskers[i].Mask(uint64(r), secagg.Quantize(update, quant), active)
			maskSpan.End()
			if err != nil {
				round.End()
				return nil, stats, err
			}
			msg := secagg.MaskedUpdate{Round: uint64(r), Party: uint32(i), Vec: masked}
			frame := msg.Marshal(nil)
			msgN++
			if err := f.guardedHop(name, opSecAgg, apiSecAgg, msgN, int64(len(frame))); err != nil {
				// Transient-exhausted or breaker-refused: the party is
				// dropped from this round and recovered below.
				dropped = append(dropped, i)
				stats.Drops++
				continue
			}
			stats.MaskedBytes += int64(len(frame))
			// Server side: decode and accumulate blind.
			decoded, err := secagg.UnmarshalMaskedUpdate(frame)
			if err != nil {
				round.End()
				return nil, stats, err
			}
			if err := agg.Add(int(decoded.Party), decoded.Vec); err != nil {
				round.End()
				return nil, stats, err
			}
		}
		survivors := activeCount - len(dropped)
		if survivors < threshold {
			round.End()
			return nil, stats, fmt.Errorf("%w: %d survivors of %d required at round %d",
				ErrSecAggQuorum, survivors, threshold, r)
		}

		// t-of-N recovery: cancel each dropped party's residual masks
		// with seed reveals from every surviving submitter.
		for _, d := range dropped {
			recoverSpan := m.reg.StartChildSpan("secagg."+StageSecAggRecover, telemetry.SpanContext{},
				m.histogram(MetricSecAggStageDuration, telemetry.L("stage", StageSecAggRecover)))
			reveals := make(map[int]secagg.Seed, survivors)
			for j, name := range names {
				if !agg.Submitted(j) {
					continue
				}
				seed, err := maskers[j].Reveal(uint64(r), d)
				if err != nil {
					recoverSpan.End()
					round.End()
					return nil, stats, err
				}
				msg := secagg.SeedReveal{Round: uint64(r), From: uint32(j), Dropped: uint32(d), Seed: seed}
				frame := msg.Marshal(nil)
				msgN++
				if err := f.guardedHop(name, opSecAgg, apiSecAgg, msgN, int64(len(frame))); err != nil {
					// A survivor that cannot deliver its reveal stalls
					// recovery of this party; without the reveal the sum
					// stays masked, so the round cannot be released.
					recoverSpan.End()
					round.End()
					return nil, stats, fmt.Errorf("federation: secure round %d: reveal from %s for dropped %s: %w",
						r, name, names[d], err)
				}
				stats.RevealBytes += int64(len(frame))
				decoded, err := secagg.UnmarshalSeedReveal(frame)
				if err != nil {
					recoverSpan.End()
					round.End()
					return nil, stats, err
				}
				reveals[int(decoded.From)] = decoded.Seed
			}
			if err := agg.RemoveDropped(d, reveals); err != nil {
				recoverSpan.End()
				round.End()
				return nil, stats, err
			}
			stats.Recoveries++
			m.counter(MetricSecAggRecoveries).Inc()
			recoverSpan.End()
		}

		// Blind aggregate: masks cancelled, exact ring sum, averaged on
		// the fixed-point grid.
		aggSpan := m.reg.StartChildSpan("secagg."+StageSecAggAggregate, telemetry.SpanContext{},
			m.histogram(MetricSecAggStageDuration, telemetry.L("stage", StageSecAggAggregate)))
		sum, count, err := agg.Sum()
		if err != nil {
			aggSpan.End()
			round.End()
			return nil, stats, err
		}
		avg := secagg.Dequantize(sum, quant, count)
		copy(model.W, avg[:dim])
		model.B = avg[dim]
		aggSpan.End()
		m.counter(MetricSecAggRounds).Inc()
		m.histogram(MetricSecAggQuantError).Observe(quant.ErrorBound(count))
		round.End()
		stats.Rounds++
	}

	endHops, endBytes := f.Server.traffic(opSecAgg)
	stats.ModelHops = int(endHops - startHops)
	stats.BytesRelayed = endBytes - startBytes
	stats.Retries = int(trainRetriesTotal(m, names) - startRetries)
	return model, stats, nil
}
