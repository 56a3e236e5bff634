package federation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"csfltr/internal/ltr"
	"csfltr/internal/resilience"
	"csfltr/internal/telemetry"
	"csfltr/internal/wire"
)

// ErrNoTrainingData is returned when every party's dataset is empty.
var ErrNoTrainingData = errors.New("federation: no training data at any party")

// TrainingStats reports what the distributed training run cost. Hops
// and bytes are read back from the server's relay counters (op="train")
// rather than tallied separately, so training traffic is accounted in
// exactly one place. BytesRelayed is the bytes the wire codec frames
// per hop (varint-coded, compressed above threshold).
type TrainingStats struct {
	Rounds       int
	ModelHops    int   // model hand-offs through the server
	BytesRelayed int64 // encoded model bytes moved through the server
	Retries      int   // hop attempts beyond the first, across all hops
}

// guardedHop relays one training-side message (a round-robin model
// hand-off or a secure-aggregation submission/reveal) to a party: breaker
// admission, the party's simulated link under the federation's retry
// policy, the retry count and the breaker outcome, then the frame's bytes
// charged to the op relay series and the api transport family. content
// discriminates the message in the chaos stream so each one faults
// independently.
func (f *Federation) guardedHop(name, op, api string, content uint64, frame int64) error {
	m := f.Server.metrics()
	br := f.breakerFor(name)
	if !br.Allow() {
		return fmt.Errorf("federation: %s hop to %s: %w", op, name, resilience.ErrBreakerOpen)
	}
	_, attempts, err := resilience.Call(f.ResiliencePolicy(), f.callSeed(name, content),
		func() (struct{}, error) {
			return struct{}{}, f.Server.intercept(name, op, content)
		})
	if attempts > 1 {
		m.counter(MetricRetries, telemetry.L("party", name)).Add(int64(attempts - 1))
	}
	br.Record(err == nil)
	if err != nil {
		return fmt.Errorf("federation: %s hop to %s: %w", op, name, err)
	}
	m.counter(MetricRelayedMessages, telemetry.L("party", name), telemetry.L("op", op)).Inc()
	m.counter(MetricRelayedBytes, telemetry.L("party", name), telemetry.L("op", op)).Add(frame)
	m.counter(MetricTransportBytes, telemetry.L("party", name), telemetry.L("api", api),
		telemetry.L("codec", f.Server.codecLabel())).Add(frame)
	return nil
}

// TrainRoundRobin runs the paper's round-robin distributed SGD *over the
// federation topology*: the global model is handed from party to party
// through the coordinating server, each holder trains one local epoch on
// its own instances, and every hand-off is charged to the server's
// traffic accounting with the byte size the wire codec actually frames.
// data maps party name to that party's training instances (already
// feature-extracted and normalized by the caller).
//
// Hand-offs pass through the chaos interceptor and the federation's
// retry policy and per-party breakers, like every query relay: an
// injected transient fault is retried with deterministic backoff, and a
// hop that fails permanently aborts the run.
//
// The learning dynamics are identical to ltr.TrainRoundRobin; this
// wrapper exists so experiments can report the *communication* cost of
// training, which the in-process trainer cannot see.
func (f *Federation) TrainRoundRobin(dim int, data map[string][]ltr.Instance, rounds int, cfg ltr.SGDConfig) (*ltr.LinearModel, TrainingStats, error) {
	var stats TrainingStats
	if err := cfg.Validate(); err != nil {
		return nil, stats, err
	}
	if rounds <= 0 {
		return nil, stats, fmt.Errorf("ltr round count must be positive, got %d", rounds)
	}
	names := f.Server.PartyNames()
	total := 0
	for _, name := range names {
		total += len(data[name])
	}
	if total == 0 {
		return nil, stats, ErrNoTrainingData
	}
	model := ltr.NewLinearModel(dim)
	local := cfg
	local.Epochs = 1
	orderRNG := rand.New(rand.NewSource(cfg.Seed + 7))
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	m := f.Server.metrics()
	startHops, startBytes := f.Server.traffic(opTrain)
	startRetries := trainRetriesTotal(m, names)
	hopN := uint64(0)
	for r := 0; r < rounds; r++ {
		round := m.reg.StartChildSpan("training.round", telemetry.SpanContext{}, m.roundDur)
		local.LearningRate = cfg.LearningRate * math.Pow(cfg.LRDecay, float64(r))
		orderRNG.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, pi := range order {
			name := names[pi]
			d := data[name]
			if len(d) == 0 {
				continue
			}
			// Server relays the current model to the party and receives
			// the update back: two hops, each charged with the framed
			// encoded size of the model it carries.
			hopN++
			down := int64(len(wire.AppendModel(nil, model.W, model.B)))
			if err := f.guardedHop(name, opTrain, apiTrain, hopN, down); err != nil {
				round.End()
				return nil, stats, fmt.Errorf("federation: round %d: %w", r, err)
			}
			local.Seed = cfg.Seed + int64(r*len(names)+pi)
			if err := local.Train(model, d); err != nil {
				round.End()
				return nil, stats, fmt.Errorf("federation: round %d party %s: %w", r, name, err)
			}
			hopN++
			up := int64(len(wire.AppendModel(nil, model.W, model.B)))
			if err := f.guardedHop(name, opTrain, apiTrain, hopN, up); err != nil {
				round.End()
				return nil, stats, fmt.Errorf("federation: round %d: %w", r, err)
			}
		}
		round.End()
		stats.Rounds++
	}
	endHops, endBytes := f.Server.traffic(opTrain)
	stats.ModelHops = int(endHops - startHops)
	stats.BytesRelayed = endBytes - startBytes
	stats.Retries = int(trainRetriesTotal(m, names) - startRetries)
	return model, stats, nil
}

// trainRetriesTotal sums the retry counters of the training roster, so
// TrainingStats can report the delta a run caused.
func trainRetriesTotal(m *serverMetrics, names []string) int64 {
	var total int64
	for _, name := range names {
		total += m.counter(MetricRetries, telemetry.L("party", name)).Value()
	}
	return total
}
