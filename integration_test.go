package csfltr

// Integration tests: full-stack flows crossing package boundaries — the
// kind of end-to-end behaviour unit tests in internal/ packages cannot
// see. Everything runs at small scale so the whole file stays under a
// few seconds.

import (
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/corpus"
	"csfltr/internal/dp"
	"csfltr/internal/experiments"
	"csfltr/internal/federation"
	"csfltr/internal/ltr"
	"csfltr/internal/store"
)

// TestIntegrationHTTPPersistenceCycle runs the deployment story end to
// end: build a federation from a synthetic corpus, snapshot an owner to
// disk, restore it into a *fresh* federation, serve that over TCP, and
// verify a remote querier gets identical reverse top-K answers from the
// restored sketches.
func TestIntegrationHTTPPersistenceCycle(t *testing.T) {
	params := core.DefaultParams()
	params.Epsilon = 0
	params.W = 256
	params.Z = 12
	params.Z1 = 12
	params.K = 10

	cfg := corpus.TestConfig()
	c, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.NewDeterministic([]string{"A", "B"}, params, 4242, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fed.Party("B")
	if err := b.IngestAllParallel(c.Parties[1].Docs, 0); err != nil {
		t.Fatal(err)
	}
	// Pick a probe term that actually occurs: first salient term of the
	// first topic.
	probe := uint64(c.Topics()[0][0])
	a, _ := fed.Party("A")
	direct, _, err := core.RTKReverseTopK(a.Querier(), b.Owner(federation.FieldBody), probe, params.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) == 0 {
		t.Fatal("probe term matched nothing; corpus setup broken")
	}

	// Snapshot B's body owner, restore into a new federation.
	snap := filepath.Join(t.TempDir(), "b-body.snap")
	if err := store.SaveOwner(snap, b.Owner(federation.FieldBody)); err != nil {
		t.Fatal(err)
	}
	restored, err := store.LoadOwner(snap, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}

	// A fresh querier (same shared seed) against the restored owner.
	querier, err := core.NewQuerier(params, 4242, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	viaRestored, _, err := core.RTKReverseTopK(querier, restored, probe, params.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaRestored) != len(direct) {
		t.Fatalf("restored owner returned %d docs, original %d", len(viaRestored), len(direct))
	}
	for i := range direct {
		if direct[i].DocID != viaRestored[i].DocID {
			t.Fatalf("result %d differs after persistence: %v vs %v", i, direct[i], viaRestored[i])
		}
	}

	// And over TCP: serve the original federation, query remotely.
	ts := httptest.NewServer(federation.HTTPHandler(fed.Server))
	defer ts.Close()
	remote := federation.NewHTTPOwner(ts.URL, "B", federation.FieldBody, ts.Client())
	q2, _ := core.NewQuerier(params, 4242, rand.New(rand.NewSource(9)))
	viaHTTP, _, err := core.RTKReverseTopK(q2, remote, probe, params.K)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i].DocID != viaHTTP[i].DocID {
			t.Fatalf("result %d differs over HTTP: %v vs %v", i, direct[i], viaHTTP[i])
		}
	}
}

// TestIntegrationAugmentedTrainingBeatsRandom: the complete learning
// loop — corpus, sketches, reverse top-K augmentation, federated
// training — must produce a model that decisively beats an untrained
// one on the external test set.
func TestIntegrationAugmentedTrainingBeatsRandom(t *testing.T) {
	cfg := experiments.TestPipelineConfig()
	p, err := experiments.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := experiments.TrainCSFLTR(p)
	if err != nil {
		t.Fatal(err)
	}
	untrainedMetrics := experiments.EvaluateTrained(
		&experiments.TrainedModel{Model: trained.Model, Norm: trained.Norm}, p)
	_ = untrainedMetrics // same model; real comparison below

	if trained.TestMetrics.NDCG10 < 0.5 {
		t.Fatalf("full pipeline produced weak model: nDCG@10 = %v", trained.TestMetrics.NDCG10)
	}
	// Zero model baseline: constant scores, i.e. arbitrary ranking.
	zero := &experiments.TrainedModel{
		Model: ltr.NewLinearModel(16),
		Norm:  trained.Norm,
	}
	zeroMetrics := experiments.EvaluateTrained(zero, p)
	if trained.TestMetrics.NDCG10 <= zeroMetrics.NDCG10 {
		t.Fatalf("trained (%v) does not beat untrained (%v)",
			trained.TestMetrics.NDCG10, zeroMetrics.NDCG10)
	}
}
