package federation

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"csfltr/internal/core"
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

// mergeFeed is one list fed to the merge: a party (an index into the
// roster) and its documents.
type mergeFeed struct {
	party int
	docs  []core.DocCount
}

// refMerge is the map-and-sort merge the search ran before its pooled
// one: per (party, document) a sum accumulated as the lists are fed,
// then every sum sorted and the first k kept.
func refMerge(parties []PartyReport, feeds []mergeFeed, k int) []SearchHit {
	type key struct {
		party int
		doc   int
	}
	scores := make(map[key]float64)
	for _, fd := range feeds {
		for _, dc := range fd.docs {
			if dc.Count <= 0 {
				continue
			}
			scores[key{party: fd.party, doc: dc.DocID}] += dc.Count
		}
	}
	hits := make([]SearchHit, 0, len(scores))
	for kk, s := range scores {
		hits = append(hits, SearchHit{Party: parties[kk.party].Party, DocID: kk.doc, Score: s})
	}
	slices.SortFunc(hits, func(a, b SearchHit) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Party, b.Party); c != 0 {
			return c
		}
		return cmp.Compare(a.DocID, b.DocID)
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// TestMergeMatchesMapAndSort holds the pooled merge to the map-and-sort
// reference over seeded searches: rosters in non-alphabetical order
// with answering, skipped, failed and stale-backfilled parties; lists
// that share documents across terms; and counts drawn from ties, zero,
// negative values, NaN and values whose sum depends on its order.
// Every hit, and every score's bits, must agree. One state serves every
// search, through the pool, as searches reuse it.
func TestMergeMatchesMapAndSort(t *testing.T) {
	counts := []float64{1, 1, 2, 3, 0, -1, -0.5, math.NaN(), 0.1, 0.2, 0.3, 1e16, 1e-3, 7.25}
	outcomes := []string{OutcomeOK, OutcomeOK, OutcomeSkipped, OutcomeFailed, OutcomeStale}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var parties []PartyReport
		var feeds []mergeFeed
		for _, name := range rng.Perm(2 + rng.Intn(5)) {
			rep := PartyReport{Party: fmt.Sprintf("P%d", 9-name), Outcome: outcomes[rng.Intn(len(outcomes))]}
			ri := len(parties)
			parties = append(parties, rep)
			if rep.Outcome == OutcomeSkipped || rep.Outcome == OutcomeFailed {
				continue // nothing of theirs is fed
			}
			// An answering party's lists come in plan order, a backfilled
			// one's in term order: either way one list per term.
			for term := 1 + rng.Intn(4); term > 0; term-- {
				docs := make([]core.DocCount, rng.Intn(12))
				for i := range docs {
					docs[i] = core.DocCount{DocID: rng.Intn(15) - 2, Count: counts[rng.Intn(len(counts))]}
				}
				feeds = append(feeds, mergeFeed{party: ri, docs: docs})
			}
		}
		k := 1 + rng.Intn(20)

		st := searchStates.Get().(*searchState)
		for _, fd := range feeds {
			st.feed(fd.party, fd.docs)
		}
		got := st.rank(parties, k)
		st.release()
		want := refMerge(parties, feeds, k)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d hits, want %d", seed, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Party != w.Party || g.DocID != w.DocID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("seed %d, hit %d: %+v, want %+v", seed, i, g, w)
			}
		}
	}
}
