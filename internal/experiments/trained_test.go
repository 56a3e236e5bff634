package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

func TestTrainCSFLTRAndPersist(t *testing.T) {
	p := testPipeline(t)
	trained, err := TrainCSFLTR(p)
	if err != nil {
		t.Fatal(err)
	}
	if trained.TestMetrics.NDCG == 0 {
		t.Fatal("trained model learned nothing")
	}
	var buf bytes.Buffer
	if _, err := trained.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadTrainedModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The same weights and the same normalizer.
	if !reflect.DeepEqual(restored.Model, trained.Model) || !reflect.DeepEqual(restored.Norm, trained.Norm) {
		t.Fatalf("restored model differs: %+v / %+v, want %+v / %+v", restored.Model, restored.Norm, trained.Model, trained.Norm)
	}
	// Evaluation against the same pipeline matches.
	m1 := EvaluateTrained(trained, p)
	m2 := EvaluateTrained(restored, p)
	if m1 != m2 {
		t.Fatalf("metrics differ after round trip: %+v vs %+v", m1, m2)
	}
	if m1 != trained.TestMetrics {
		t.Fatalf("EvaluateTrained (%+v) disagrees with training-time metrics (%+v)", m1, trained.TestMetrics)
	}
}

func TestTrainedModelGeneralizes(t *testing.T) {
	p := testPipeline(t)
	trained, err := TrainCSFLTR(p)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh corpus from a different seed: the model should still rank far
	// better than random.
	cfg := TestPipelineConfig()
	cfg.Seed = 99
	cfg.Corpus.Seed = 99
	p2, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := EvaluateTrained(trained, p2)
	if m.NDCG10 < 0.4 {
		t.Fatalf("model fails to generalize across seeds: nDCG@10 = %v", m.NDCG10)
	}
}

func TestReadTrainedModelCorrupt(t *testing.T) {
	p := testPipeline(t)
	trained, err := TrainCSFLTR(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trained.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadTrainedModel(bytes.NewReader(data[:10])); err == nil {
		t.Fatal("truncated bundle should error")
	}
	if _, err := ReadTrainedModel(bytes.NewReader(data[:len(data)-8])); err == nil {
		t.Fatal("bundle missing normalizer tail should error")
	}
}
