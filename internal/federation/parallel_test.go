package federation

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csfltr/internal/telemetry"
	"csfltr/internal/textkit"
)

// parallelDocs builds a deterministic document set for one party.
func parallelDocs(seed int64, n int) []*textkit.Document {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]*textkit.Document, n)
	for i := range docs {
		body := make([]textkit.TermID, 30)
		for j := range body {
			body[j] = textkit.TermID(rng.Intn(400))
		}
		title := []textkit.TermID{body[0], body[1]}
		docs[i] = textkit.NewDocument(i, -1, title, body)
	}
	return docs
}

// parallelSearchFed builds a 5-party federation (querier Q + 4 data
// parties) with a few hundred documents each.
func parallelSearchFed(t *testing.T) *Federation {
	t.Helper()
	fed, err := NewDeterministic([]string{"Q", "A", "B", "C", "D"}, testParams(), 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range fed.Parties[1:] {
		for _, d := range parallelDocs(int64(i)+1, 60) {
			if err := p.IngestDocument(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fed
}

// TestFederatedSearchParallelMatchesSequential: the concurrent fan-out
// must return exactly the sequential ranking and cost at every pool
// size — term plans are built once in deterministic order and per-task
// results merge in task order, so scheduling cannot leak into scores.
func TestFederatedSearchParallelMatchesSequential(t *testing.T) {
	terms := []uint64{3, 17, 17, 99, 250}
	base := parallelSearchFed(t)
	base.Params.Parallelism = 1
	want, err := base.Search("Q", terms, 12)
	if err != nil {
		t.Fatal(err)
	}
	wantHits, wantCost := want.Hits, want.Cost
	if len(wantHits) == 0 {
		t.Fatal("degenerate test: sequential search found nothing")
	}
	for _, workers := range []int{2, 4, 16, 0 /* GOMAXPROCS */} {
		fed := parallelSearchFed(t)
		fed.Params.Parallelism = workers
		res, err := fed.Search("Q", terms, 12)
		if err != nil {
			t.Fatal(err)
		}
		hits, cost := res.Hits, res.Cost
		if cost != wantCost {
			t.Fatalf("workers=%d: cost %+v, want %+v", workers, cost, wantCost)
		}
		if len(hits) != len(wantHits) {
			t.Fatalf("workers=%d: %d hits, want %d", workers, len(hits), len(wantHits))
		}
		for i := range hits {
			if hits[i] != wantHits[i] {
				t.Fatalf("workers=%d: hit %d = %+v, want %+v", workers, i, hits[i], wantHits[i])
			}
		}
	}
}

// TestFederatedSearchBudgetAbortsBeforeDispatch: the whole fan-out's
// privacy budget is spent up front, so a refusal must abort the search
// before any query is relayed.
func TestFederatedSearchBudgetAbortsBeforeDispatch(t *testing.T) {
	p := testParams()
	p.Epsilon = 0.5
	fed, err := NewDeterministic([]string{"B", "C"}, p, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Querier with a budget covering the first (party, term) spend only.
	q, err := NewParty("Q", PartyConfig{Params: p, Seed: 42, RNGSeed: 1, Budget: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.Server.Register(q); err != nil {
		t.Fatal(err)
	}
	fed.Parties = append(fed.Parties, q)
	b, _ := fed.Party("B")
	mustIngest(t, b, 0, []textkit.TermID{1, 2})
	before := fed.Server.Traffic()
	if _, err := fed.Search("Q", []uint64{1, 2}, 3); err == nil {
		t.Fatal("budget overrun should abort the search")
	}
	if after := fed.Server.Traffic(); after != before {
		t.Fatalf("queries were dispatched despite budget refusal: before %+v, after %+v",
			before, after)
	}
}

// TestRunPool exercises the shared worker pool directly: every task runs
// exactly once at any pool size, and the depth gauges drain back to zero.
func TestRunPool(t *testing.T) {
	m := newServerMetrics(telemetry.NewRegistry())
	for _, workers := range []int{-1, 0, 1, 3, 7, 100} {
		const n = 50
		var ran [n]atomic.Int32
		runPool(workers, n, m, func(i int) { ran[i].Add(1) })
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
		if q := m.poolQueue.Value(); q != 0 {
			t.Fatalf("workers=%d: queue depth gauge left at %v", workers, q)
		}
		if f := m.poolInFlight.Value(); f != 0 {
			t.Fatalf("workers=%d: in-flight gauge left at %v", workers, f)
		}
	}
	// Degenerate inputs are no-ops.
	runPool(4, 0, m, func(int) { t.Fatal("ran a task for n=0") })
	runPool(4, -3, nil, func(int) { t.Fatal("ran a task for n<0") })
}

// TestIngestAllParallelMatchesSequential: bulk party ingestion must be
// observationally identical to the document-at-a-time loop — same
// document refs and same federated search results (which exercise both
// the body owners and the metadata).
func TestIngestAllParallelMatchesSequential(t *testing.T) {
	docs := parallelDocs(3, 120)
	build := func(bulk bool) *Federation {
		fed, err := NewDeterministic([]string{"Q", "A"}, testParams(), 42, 7)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := fed.Party("A")
		if bulk {
			if err := a.IngestAllParallel(docs, 4); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, d := range docs {
				if err := a.IngestDocument(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		return fed
	}
	seq := build(false)
	par := build(true)
	seqParty, _ := seq.Party("A")
	parParty, _ := par.Party("A")
	if seqParty.NumDocs() != parParty.NumDocs() {
		t.Fatalf("NumDocs: %d vs %d", seqParty.NumDocs(), parParty.NumDocs())
	}
	terms := []uint64{5, 42, 133, 301}
	want, err := seq.Search("Q", terms, 15)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Search("Q", terms, 15)
	if err != nil {
		t.Fatal(err)
	}
	wantHits, wantCost, gotHits, gotCost := want.Hits, want.Cost, got.Hits, got.Cost
	if len(wantHits) == 0 {
		t.Fatal("degenerate test: no hits")
	}
	if gotCost != wantCost || len(gotHits) != len(wantHits) {
		t.Fatalf("bulk-ingested federation answers differently: %d hits %+v vs %d hits %+v",
			len(gotHits), gotCost, len(wantHits), wantCost)
	}
	for i := range wantHits {
		if gotHits[i] != wantHits[i] {
			t.Fatalf("hit %d: %+v vs %+v", i, gotHits[i], wantHits[i])
		}
	}
}

// TestSetPartyLink: a configured per-party round trip must be
// observable on that party's relayed owner calls only, and removable
// again.
func TestSetPartyLink(t *testing.T) {
	fed := searchFed(t)
	const rtt = 30 * time.Millisecond
	fed.Server.SetPartyLink("B", rtt)
	owner, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := owner.DocMeta(0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < rtt {
		t.Fatalf("relayed call took %v, want >= %v", elapsed, rtt)
	}
	// Another party's link is untouched.
	other, err := fed.Server.OwnerFor("C", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	other.DocIDs()
	if elapsed := time.Since(start); elapsed >= rtt {
		t.Fatalf("unconfigured party's call took %v", elapsed)
	}
	fed.Server.SetPartyLink("B", 0)
	start = time.Now()
	if _, _, err := owner.DocMeta(0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > rtt {
		t.Fatalf("delay did not reset: call took %v", elapsed)
	}
}

// TestSetPartyLinkAllParties: configuring every party's link one by one
// applies one round trip per relayed call to each of them (the
// per-party replacement for the removed global SetLinkDelay knob).
func TestSetPartyLinkAllParties(t *testing.T) {
	fed := searchFed(t)
	const rtt = 30 * time.Millisecond
	for _, party := range []string{"B", "C"} {
		fed.Server.SetPartyLink(party, rtt)
	}
	for _, party := range []string{"B", "C"} {
		owner, err := fed.Server.OwnerFor(party, FieldBody)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, _, err := owner.DocMeta(0); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed < rtt {
			t.Fatalf("party %s: relayed call took %v, want >= %v", party, elapsed, rtt)
		}
	}
	for _, party := range []string{"B", "C"} {
		fed.Server.SetPartyLink(party, 0)
	}
	owner, _ := fed.Server.OwnerFor("B", FieldBody)
	start := time.Now()
	if _, _, err := owner.DocMeta(0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > rtt {
		t.Fatalf("delay did not reset: call took %v", elapsed)
	}
}

// TestConcurrentSearchesOneQuerier: a gateway serves concurrent searches
// from one party, so one querier obfuscates for all of them — and for
// the TF queries beside them — at once. Its randomness and scratch are
// locked for the draws (the race detector, under which CI runs this,
// reported them before they were), and with noise off every answer is
// the one a lone caller gets.
func TestConcurrentSearchesOneQuerier(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	termSets := [][]uint64{{5}, {9}, {8}, {5, 9, 8}}
	want := make([][]SearchHit, len(termSets))
	for g, terms := range termSets {
		res, err := fed.Search("A", terms, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = res.Hits
	}
	wantTF := []float64{4, 1, 0} // term 5 in B's documents 0, 1, 2
	var wg sync.WaitGroup
	for g, terms := range termSets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				res, err := fed.Search("A", terms, 3)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(res.Hits, want[g]) {
					t.Errorf("goroutine %d: hits %+v, want %+v", g, res.Hits, want[g])
					return
				}
				doc := (g + n) % len(wantTF)
				tf, err := fed.CrossTF("A", "B", FieldBody, doc, 5)
				if err != nil || tf != wantTF[doc] {
					t.Errorf("goroutine %d: CrossTF doc %d = %v (%v), want %v", g, doc, tf, err, wantTF[doc])
					return
				}
			}
		}()
	}
	wg.Wait()
}
