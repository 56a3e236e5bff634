package federation

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"csfltr/internal/chaos"
	"csfltr/internal/ltr"
	"csfltr/internal/resilience"
)

// trainData builds a linearly separable per-party dataset with known
// weights.
func trainData(n int, seed int64) []ltr.Instance {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ltr.Instance, n)
	for i := range out {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		y := 1.5*x[0] - 2*x[1] + 0.3 + 0.05*rng.NormFloat64()
		out[i] = ltr.Instance{Features: x, Label: y, QueryKey: "q"}
	}
	return out
}

// modelWireSize is the uncompressed size of a model update — 8 bytes
// per weight plus the bias — against which the training tests bound the
// codec's per-hop framing overhead.
func modelWireSize(dim int) int64 { return int64(8 * (dim + 1)) }

func TestFederationTrainRoundRobin(t *testing.T) {
	fed, err := NewDeterministic([]string{"A", "B", "C"}, testParams(), 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := map[string][]ltr.Instance{
		"A": trainData(400, 1),
		"B": trainData(400, 2),
		"C": trainData(400, 3),
	}
	cfg := ltr.DefaultSGDConfig()
	fed.Server.ResetTraffic()
	model, stats, err := fed.TrainRoundRobin(2, data, 30, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.W[0]-1.5) > 0.15 || math.Abs(model.W[1]+2) > 0.15 {
		t.Fatalf("federated model did not converge: %+v", model)
	}
	// Accounting: 30 rounds x 3 parties x 2 hops.
	if stats.ModelHops != 180 {
		t.Fatalf("ModelHops = %d, want 180", stats.ModelHops)
	}
	// Reference column: the historical fixed-width estimate, 8 bytes per
	// weight plus the bias per hop. BytesRelayed now carries the framed
	// encoded sizes, which for a tiny dense float model run slightly
	// above the raw estimate (frame header + value-vector flags) but
	// must stay within a small constant of it per hop.
	legacyBytes := int64(180) * modelWireSize(2)
	if stats.BytesRelayed <= 0 {
		t.Fatal("BytesRelayed not accounted")
	}
	perHopOverhead := (stats.BytesRelayed - legacyBytes) / 180
	if perHopOverhead < 0 || perHopOverhead > 16 {
		t.Fatalf("BytesRelayed = %d (legacy reference %d): framing overhead %d bytes/hop out of range",
			stats.BytesRelayed, legacyBytes, perHopOverhead)
	}
	tr := fed.Server.Traffic()
	if tr.Bytes != stats.BytesRelayed || tr.Messages != 180 {
		t.Fatalf("server traffic %+v does not match training stats %+v", tr, stats)
	}
	// The transport family carries the same bytes under api="train".
	if got := fed.Server.TransportBytes(CodecRaw, "train"); got != stats.BytesRelayed {
		t.Fatalf("transport bytes %d != BytesRelayed %d", got, stats.BytesRelayed)
	}
	if stats.Rounds != 30 {
		t.Fatalf("Rounds = %d", stats.Rounds)
	}
	if stats.Retries != 0 {
		t.Fatalf("Retries = %d on a clean run", stats.Retries)
	}
}

// TestFederationTrainChaosRetries proves the training relay path goes
// through the chaos interceptor: with a seeded transient error rate the
// run still completes, retries are recorded in the stats and the retry
// counters, and injected faults are counted.
func TestFederationTrainChaosRetries(t *testing.T) {
	fed, err := NewDeterministic([]string{"A", "B", "C"}, testParams(), 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := chaos.New(42)
	in.SetDefault(chaos.Profile{ErrorRate: 0.3})
	fed.Server.SetChaos(in)
	policy := resilience.DefaultPolicy()
	policy.MaxAttempts = 8
	policy = policy.WithSleep(func(time.Duration) {})
	fed.SetResiliencePolicy(policy)
	data := map[string][]ltr.Instance{
		"A": trainData(200, 1),
		"B": trainData(200, 2),
		"C": trainData(200, 3),
	}
	model, stats, err := fed.TrainRoundRobin(2, data, 20, ltr.DefaultSGDConfig())
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || stats.ModelHops != 120 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Retries == 0 {
		t.Fatal("30% error rate injected no retried hops")
	}
	// The same seeds give the same retry count: the whole path is
	// deterministic.
	fed2, err := NewDeterministic([]string{"A", "B", "C"}, testParams(), 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	in2 := chaos.New(42)
	in2.SetDefault(chaos.Profile{ErrorRate: 0.3})
	fed2.Server.SetChaos(in2)
	fed2.SetResiliencePolicy(policy)
	model2, stats2, err := fed2.TrainRoundRobin(2, data, 20, ltr.DefaultSGDConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Retries != stats.Retries {
		t.Fatalf("retries not deterministic: %d vs %d", stats2.Retries, stats.Retries)
	}
	if model2.B != model.B || model2.W[0] != model.W[0] {
		t.Fatal("chaos retries changed the learned model")
	}
}

// TestFederationTrainHopFailsPermanently aborts the run when a party is
// hard down and its breaker-guarded hop exhausts its retries.
func TestFederationTrainHopFailsPermanently(t *testing.T) {
	fed, err := NewDeterministic([]string{"A", "B"}, testParams(), 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := chaos.New(7)
	in.SetProfile("B", chaos.Profile{Down: true})
	fed.Server.SetChaos(in)
	data := map[string][]ltr.Instance{
		"A": trainData(50, 1),
		"B": trainData(50, 2),
	}
	_, _, err = fed.TrainRoundRobin(2, data, 5, ltr.DefaultSGDConfig())
	if err == nil {
		t.Fatal("training should fail when a party is down")
	}
	if !errors.Is(err, chaos.ErrInjected) && !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("unexpected failure: %v", err)
	}
}

func TestFederationTrainSkipsEmptyParties(t *testing.T) {
	fed, err := NewDeterministic([]string{"A", "B"}, testParams(), 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := map[string][]ltr.Instance{"A": trainData(300, 1)}
	model, stats, err := fed.TrainRoundRobin(2, data, 10, ltr.DefaultSGDConfig())
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || stats.ModelHops != 20 { // only party A moves the model
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFederationTrainErrors(t *testing.T) {
	fed, err := NewDeterministic([]string{"A"}, testParams(), 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fed.TrainRoundRobin(2, nil, 10, ltr.DefaultSGDConfig()); !errors.Is(err, ErrNoTrainingData) {
		t.Fatalf("empty data: %v", err)
	}
	bad := ltr.DefaultSGDConfig()
	bad.LearningRate = 0
	if _, _, err := fed.TrainRoundRobin(2, map[string][]ltr.Instance{"A": trainData(10, 1)}, 10, bad); err == nil {
		t.Fatal("bad SGD config should error")
	}
	if _, _, err := fed.TrainRoundRobin(2, map[string][]ltr.Instance{"A": trainData(10, 1)}, 0, ltr.DefaultSGDConfig()); err == nil {
		t.Fatal("zero rounds should error")
	}
}
