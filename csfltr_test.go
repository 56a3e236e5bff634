package csfltr

import (
	"strings"
	"testing"

	"csfltr/internal/experiments"
)

func TestFacadeDocumentHelpers(t *testing.T) {
	vocab := NewVocabulary()
	d := NewDocument(vocab, 0, "Federated Ranking", "ranking documents across silos, federated ranking works")
	if len(d.Title) != 2 {
		t.Fatalf("title len = %d", len(d.Title))
	}
	if d.Len() != 7 {
		t.Fatalf("body len = %d", d.Len())
	}
	q := NewQuery(vocab, 0, "federated ranking")
	if len(q.UniqueTerms()) != 2 {
		t.Fatalf("query terms = %v", q.Terms)
	}
	// "ranking" interned once: same id in doc title and query.
	id, ok := vocab.Lookup("ranking")
	if !ok {
		t.Fatal("vocabulary lost a term")
	}
	if q.Terms[1] != id {
		t.Fatal("query and document vocabularies disagree")
	}
	if got := Tokenize("A-b c"); len(got) != 3 {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestFacadeFederationRoundTrip(t *testing.T) {
	params := DefaultParams()
	params.Epsilon = 0
	params.W = 512
	params.K = 3
	fed, err := NewDeterministicFederation([]string{"A", "B"}, params, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	vocab := NewVocabulary()
	b, err := fed.Party("B")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.IngestDocument(NewDocument(vocab, 0, "gopher", "go go go database systems")); err != nil {
		t.Fatal(err)
	}
	if err := b.IngestDocument(NewDocument(vocab, 1, "other", "entirely unrelated words here")); err != nil {
		t.Fatal(err)
	}
	goID, _ := vocab.Lookup("go")
	top, cost, err := fed.ReverseTopK("A", "B", FieldBody, uint64(goID), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].DocID != 0 {
		t.Fatalf("reverse top-K = %v", top)
	}
	if cost.Messages != 1 {
		t.Fatalf("RTK cost = %+v", cost)
	}
	tf, err := fed.CrossTF("A", "B", FieldBody, 0, uint64(goID))
	if err != nil {
		t.Fatal(err)
	}
	if tf != 3 {
		t.Fatalf("CrossTF = %v, want 3", tf)
	}
}

func TestFacadeSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow in -short mode")
	}
	cfg := experiments.TestPipelineConfig()
	res, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSFLTR.NDCG == 0 {
		t.Fatal("simulation learned nothing")
	}
	out := RenderTable(res)
	if !strings.Contains(out, "CS-F-LTR") {
		t.Fatalf("rendered table malformed:\n%s", out)
	}
}

func TestFacadeCeremonyFederation(t *testing.T) {
	fed, err := NewFederation([]string{"A", "B"}, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Parties) != 2 {
		t.Fatalf("parties = %d", len(fed.Parties))
	}
}
