package federation

import (
	"errors"
	"testing"

	"csfltr/internal/textkit"
)

func searchFed(t *testing.T) *Federation {
	t.Helper()
	fed, err := NewDeterministic([]string{"A", "B", "C"}, testParams(), 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fed.Party("B")
	c, _ := fed.Party("C")
	// B doc 0 matches both terms heavily; C doc 0 matches one term.
	mustIngest(t, b, 0, []textkit.TermID{10, 10, 10, 11, 11})
	mustIngest(t, b, 1, []textkit.TermID{99, 98})
	mustIngest(t, c, 0, []textkit.TermID{10, 10})
	mustIngest(t, c, 1, []textkit.TermID{11})
	return fed
}

func mustIngest(t *testing.T, p *Party, id int, body []textkit.TermID) {
	t.Helper()
	if err := p.IngestDocument(textkit.NewDocument(id, -1, nil, body)); err != nil {
		t.Fatal(err)
	}
}

func TestFederatedSearch(t *testing.T) {
	fed := searchFed(t)
	res, err := fed.Search("A", []uint64{10, 11}, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, cost := res.Hits, res.Cost
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Party != "B" || hits[0].DocID != 0 {
		t.Fatalf("top hit = %+v, want B/0", hits[0])
	}
	if hits[0].Score < 4.5 { // 3 + 2 exact
		t.Fatalf("top score = %v", hits[0].Score)
	}
	// Ordering: B/0 (5) > C/0 (2) >= C/1 (1).
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatalf("hits not sorted: %+v", hits)
		}
	}
	if cost.Messages == 0 || cost.BytesReceived == 0 {
		t.Fatalf("cost not recorded: %+v", cost)
	}
	// Querier's own docs never appear.
	for _, h := range hits {
		if h.Party == "A" {
			t.Fatal("search returned the querier's own party")
		}
	}
}

func TestFederatedSearchDuplicateTerms(t *testing.T) {
	fed := searchFed(t)
	once, err := fed.Search("A", []uint64{10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	fed2 := searchFed(t)
	twice, err := fed2.Search("A", []uint64{10, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(once.Hits) != len(twice.Hits) {
		t.Fatal("duplicate terms changed the hit set")
	}
	for i := range once.Hits {
		if once.Hits[i] != twice.Hits[i] {
			t.Fatal("duplicate terms double-scored")
		}
	}
}

func TestFederatedSearchTruncation(t *testing.T) {
	fed := searchFed(t)
	res, err := fed.Search("A", []uint64{10, 11}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 {
		t.Fatalf("k=1 returned %d hits", len(res.Hits))
	}
	// k <= 0 defaults to params.K.
	res, err = fed.Search("A", []uint64{10, 11}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("default k returned nothing")
	}
}

func TestFederatedSearchUnknownParty(t *testing.T) {
	fed := searchFed(t)
	if _, err := fed.Search("ZZZ", []uint64{1}, 3); !errors.Is(err, ErrUnknownParty) {
		t.Fatal("unknown querier should error")
	}
}

func TestFederatedSearchBudget(t *testing.T) {
	p := testParams()
	p.Epsilon = 0.5
	fed, err := NewDeterministic([]string{"A", "B"}, p, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild party A with a tight budget.
	a, err := NewParty("A2", PartyConfig{Params: p, Seed: 42, RNGSeed: 1, Budget: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.Server.Register(a); err != nil {
		t.Fatal(err)
	}
	fed.Parties = append(fed.Parties, a)
	b, _ := fed.Party("B")
	mustIngest(t, b, 0, []textkit.TermID{1, 2})
	// Two terms -> two queries at eps=0.5 exceeds the 0.5 budget.
	if _, err := fed.Search("A2", []uint64{1, 2}, 3); err == nil {
		t.Fatal("budget overrun should abort the search")
	}
}
