package federation

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"csfltr/internal/chaos"
	"csfltr/internal/core"
	"csfltr/internal/textkit"
)

// cacheParams returns search parameters with the answer cache enabled
// and a real epsilon, so budget spending is observable.
func cacheParams() core.Params {
	p := testParams()
	p.Epsilon = 0.5
	p.CacheBytes = 1 << 20
	return p
}

// cacheFed builds the A/B/C search federation with caching enabled.
func cacheFed(t *testing.T, p core.Params) *Federation {
	t.Helper()
	fed, err := NewDeterministic([]string{"A", "B", "C"}, p, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fed.Party("B")
	c, _ := fed.Party("C")
	mustIngest(t, b, 0, []textkit.TermID{10, 10, 10, 11, 11})
	mustIngest(t, b, 1, []textkit.TermID{99, 98})
	mustIngest(t, c, 0, []textkit.TermID{10, 10})
	mustIngest(t, c, 1, []textkit.TermID{11})
	return fed
}

// TestWarmSearchBitIdenticalZeroSpend is the tentpole acceptance test:
// repeating a search on a warm cache returns a bit-identical result and
// spends zero additional epsilon — the replays are recorded with the
// accountant instead.
func TestWarmSearchBitIdenticalZeroSpend(t *testing.T) {
	fed := cacheFed(t, cacheParams())
	terms := []uint64{10, 11}
	a, _ := fed.Party("A")

	cold, err := fed.Search("A", terms, 3)
	if err != nil {
		t.Fatal(err)
	}
	spentB, spentC := a.Accountant().Spent("B"), a.Accountant().Spent("C")
	if spentB != 1.0 || spentC != 1.0 { // 2 terms x eps 0.5
		t.Fatalf("cold spend B=%v C=%v, want 1.0 each", spentB, spentC)
	}

	warm, err := fed.Search("A", terms, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm result differs from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if got := a.Accountant().Spent("B"); got != spentB {
		t.Fatalf("warm search spent budget against B: %v -> %v", spentB, got)
	}
	if got := a.Accountant().Spent("C"); got != spentC {
		t.Fatalf("warm search spent budget against C: %v -> %v", spentC, got)
	}
	if got := replaysOf(a.Accountant(), "B"); got != int64(len(terms)) {
		t.Fatalf("Replays(B) = %d, want %d", got, len(terms))
	}
	st := fed.CacheStats()
	if st.Hits == 0 || st.Stores == 0 {
		t.Fatalf("cache never used: %+v", st)
	}
	// A third run still replays the same bytes.
	again, err := fed.Search("A", terms, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Fatal("third search diverged")
	}
}

// TestWarmResultIsCallerOwned: mutating a replayed result must not
// corrupt the cache entry behind it.
func TestWarmResultIsCallerOwned(t *testing.T) {
	fed := cacheFed(t, cacheParams())
	terms := []uint64{10, 11}
	if _, err := fed.Search("A", terms, 3); err != nil {
		t.Fatal(err)
	}
	warm, err := fed.Search("A", terms, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm.Hits {
		warm.Hits[i].Score = -1
	}
	warm.Parties[0].Outcome = "corrupted"
	next, err := fed.Search("A", terms, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range next.Hits {
		if h.Score == -1 {
			t.Fatal("caller mutation leaked into the cache")
		}
	}
	if next.Parties[0].Outcome == "corrupted" {
		t.Fatal("caller mutation leaked into the cached party report")
	}
}

// TestIngestInvalidatesCache: ingesting into one party bumps its
// generation, which must force fresh queries to that party while the
// untouched party's answers keep replaying from the task tier.
func TestIngestInvalidatesCache(t *testing.T) {
	fed := cacheFed(t, cacheParams())
	terms := []uint64{10, 11}
	a, _ := fed.Party("A")
	b, _ := fed.Party("B")

	if _, err := fed.Search("A", terms, 3); err != nil {
		t.Fatal(err)
	}
	spentB, spentC := a.Accountant().Spent("B"), a.Accountant().Spent("C")
	genBefore := b.Owner(FieldBody).Generation()
	mustIngest(t, b, 7, []textkit.TermID{10, 42})
	if got := b.Owner(FieldBody).Generation(); got <= genBefore {
		t.Fatalf("ingest did not bump generation: %d -> %d", genBefore, got)
	}

	res, err := fed.Search("A", terms, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Accountant().Spent("B"); got != spentB+1.0 {
		t.Fatalf("post-ingest search must re-query B: spent %v -> %v", spentB, got)
	}
	if got := a.Accountant().Spent("C"); got != spentC {
		t.Fatalf("post-ingest search re-queried untouched C: spent %v -> %v", spentC, got)
	}
	for _, rep := range res.Parties {
		switch rep.Party {
		case "B":
			if rep.Cached != 0 || rep.Queries != len(terms) {
				t.Fatalf("B after ingest: %+v, want all fresh", rep)
			}
		case "C":
			if rep.Cached != len(terms) || rep.Queries != 0 {
				t.Fatalf("C after ingest: %+v, want all replayed", rep)
			}
		}
	}
}

// TestConcurrentIdenticalSearchesCoalesce: N concurrent identical
// searches must perform exactly one fan-out's worth of budget spend and
// return identical results — either absorbed into the leader's flight
// or replayed from the entry the leader stored.
func TestConcurrentIdenticalSearchesCoalesce(t *testing.T) {
	fed := cacheFed(t, cacheParams())
	// A WAN-ish link keeps the leader's fan-out in flight long enough
	// for the followers to pile in.
	fed.Server.SetPartyLink("B", 10*time.Millisecond)
	fed.Server.SetPartyLink("C", 10*time.Millisecond)
	terms := []uint64{10, 11}
	a, _ := fed.Party("A")

	const n = 8
	var wg sync.WaitGroup
	results := make([]*SearchResult, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = fed.Search("A", terms, 3)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("search %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("result %d differs from result 0", i)
		}
	}
	// Exactly one fan-out spent budget: 2 terms x eps 0.5 per party.
	if got := a.Accountant().Spent("B"); got != 1.0 {
		t.Fatalf("spent(B) = %v after %d concurrent searches, want 1.0", got, n)
	}
	if got := a.Accountant().Spent("C"); got != 1.0 {
		t.Fatalf("spent(C) = %v, want 1.0", got)
	}
	st := fed.CacheStats()
	if st.Coalesced+st.Hits < n-1 {
		t.Fatalf("only %d of %d duplicates were absorbed: %+v", st.Coalesced+st.Hits, n-1, st)
	}
}

// TestStaleServeBackfillsLostParty: with stale-serve enabled, a party
// whose fresh queries fail is backfilled from its last released answers
// instead of being dropped — the report says stale, the result is not
// Partial, and the merged ranking still covers the party.
func TestStaleServeBackfillsLostParty(t *testing.T) {
	p := cacheParams()
	p.MinParties = 1
	p.CacheMaxStale = time.Hour
	fed := cacheFed(t, p)
	terms := []uint64{10, 11}

	if _, err := fed.Search("A", terms, 3); err != nil {
		t.Fatal(err)
	}
	// Invalidate B's fresh entries (ingest) and take B down: the new
	// generation forces live queries, which fail, and the pre-ingest
	// answers become the stale backfill.
	b, _ := fed.Party("B")
	mustIngest(t, b, 7, []textkit.TermID{10})
	in := chaos.New(1)
	in.SetProfile("B", chaos.Profile{Down: true})
	fed.Server.SetChaos(in)

	res, err := fed.Search("A", terms, 3)
	if err != nil {
		t.Fatalf("stale-serve search failed: %v", err)
	}
	if res.Partial {
		t.Fatal("backfilled search reported Partial")
	}
	var bRep *PartyReport
	for i := range res.Parties {
		if res.Parties[i].Party == "B" {
			bRep = &res.Parties[i]
		}
	}
	if bRep == nil || bRep.Outcome != OutcomeStale {
		t.Fatalf("B report = %+v, want stale", bRep)
	}
	if bRep.Cached != len(terms) {
		t.Fatalf("B backfilled %d terms, want %d", bRep.Cached, len(terms))
	}
	covered := false
	for _, h := range res.Hits {
		if h.Party == "B" {
			covered = true
		}
	}
	if !covered {
		t.Fatal("stale-served party missing from the merged ranking")
	}
	if st := fed.CacheStats(); st.StaleHits == 0 {
		t.Fatalf("no stale hits recorded: %+v", st)
	}
}

// TestStaleServeRespectsMaxStale: an entry older than CacheMaxStale
// must not be served; the party is dropped and the result is Partial.
func TestStaleServeRespectsMaxStale(t *testing.T) {
	p := cacheParams()
	p.MinParties = 1
	p.CacheMaxStale = time.Nanosecond
	fed := cacheFed(t, p)
	terms := []uint64{10, 11}
	if _, err := fed.Search("A", terms, 3); err != nil {
		t.Fatal(err)
	}
	b, _ := fed.Party("B")
	mustIngest(t, b, 7, []textkit.TermID{10})
	in := chaos.New(1)
	in.SetProfile("B", chaos.Profile{Down: true})
	fed.Server.SetChaos(in)
	time.Sleep(time.Millisecond) // age past the 1ns bound

	res, err := fed.Search("A", terms, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("expired entries still served: result not Partial")
	}
	for _, rep := range res.Parties {
		if rep.Party == "B" && rep.Outcome == OutcomeStale {
			t.Fatal("B served past CacheMaxStale")
		}
	}
}

// TestCacheDisabledUnchanged: CacheBytes=0 keeps the uncached path —
// repeated searches spend budget every time and no cache metrics move.
func TestCacheDisabledUnchanged(t *testing.T) {
	p := testParams()
	p.Epsilon = 0.5
	fed := cacheFed(t, p)
	a, _ := fed.Party("A")
	for i := 0; i < 2; i++ {
		if _, err := fed.Search("A", []uint64{10, 11}, 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Accountant().Spent("B"); got != 2.0 {
		t.Fatalf("uncached spend = %v, want 2.0", got)
	}
	if _, ok := fed.Server.CacheStats(); ok {
		t.Fatal("cache attached despite CacheBytes=0")
	}
}

// TestBudgetGaugeExported: every (querier, peer) pair on the roster has
// a remaining-budget gauge whose callback tracks the accountant.
func TestBudgetGaugeExported(t *testing.T) {
	p := cacheParams()
	fed, err := NewDeterministic([]string{"A", "B"}, p, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Re-register the querier with a concrete budget so Remaining is
	// finite.
	a, err := NewParty("Q", PartyConfig{Params: p, Seed: 42, RNGSeed: 1, Budget: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.Server.Register(a); err != nil {
		t.Fatal(err)
	}
	fed.Parties = append(fed.Parties, a)
	b, _ := fed.Party("B")
	mustIngest(t, b, 0, []textkit.TermID{10, 11})

	if _, err := fed.Search("Q", []uint64{10, 11}, 3); err != nil {
		t.Fatal(err)
	}
	snap := fed.Server.Metrics().Snapshot()
	ms := snap.Metric(MetricBudgetRemaining)
	if ms == nil {
		t.Fatalf("%s not exported", MetricBudgetRemaining)
	}
	found := false
	for _, s := range ms.Series {
		if s.Labels["party"] == "Q" && s.Labels["peer"] == "B" {
			found = true
			if s.Value != 1.0 { // 2.0 budget - 2 queries x 0.5
				t.Fatalf("remaining budget gauge = %v, want 1.0", s.Value)
			}
		}
	}
	if !found {
		t.Fatalf("no (Q, B) series in %+v", ms.Series)
	}
	// The callback stays current: a warm replay spends nothing.
	if _, err := fed.Search("Q", []uint64{10, 11}, 3); err != nil {
		t.Fatal(err)
	}
	snap = fed.Server.Metrics().Snapshot()
	for _, s := range snap.Metric(MetricBudgetRemaining).Series {
		if s.Labels["party"] == "Q" && s.Labels["peer"] == "B" && s.Value != 1.0 {
			t.Fatalf("replay moved the budget gauge to %v", s.Value)
		}
	}
}

// TestCacheHTTPRoute: /v1/cache serves the counters as JSON once the
// cache exists and 404s when it is disabled.
func TestCacheHTTPRoute(t *testing.T) {
	off := cacheFed(t, testParams())
	h := HTTPHandler(off.Server)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cache", nil))
	if rec.Code != 404 {
		t.Fatalf("cache-off /v1/cache = %d, want 404", rec.Code)
	}

	fed := cacheFed(t, cacheParams())
	if _, err := fed.Search("A", []uint64{10, 11}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Search("A", []uint64{10, 11}, 3); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	HTTPHandler(fed.Server).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cache", nil))
	if rec.Code != 200 {
		t.Fatalf("/v1/cache = %d, want 200", rec.Code)
	}
	var stats struct {
		Hits   int64 `json:"hits"`
		Stores int64 `json:"stores"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("bad /v1/cache body: %v", err)
	}
	if stats.Stores == 0 || stats.Hits == 0 {
		t.Fatalf("counters empty: %+v", stats)
	}
}

// BenchmarkSearchColdCache measures the uncached fan-out under a
// simulated WAN link — the baseline the warm path is compared against.
func BenchmarkSearchColdCache(b *testing.B) {
	fed, err := NewDeterministic([]string{"A", "B", "C"}, benchCacheParams(0), 42, 7)
	if err != nil {
		b.Fatal(err)
	}
	benchIngest(b, fed)
	fed.Server.SetPartyLink("B", 2*time.Millisecond)
	fed.Server.SetPartyLink("C", 2*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Search("A", []uint64{10, 11}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchWarmCache measures the replay path: everything after
// the first iteration is a query-tier hit.
func BenchmarkSearchWarmCache(b *testing.B) {
	fed, err := NewDeterministic([]string{"A", "B", "C"}, benchCacheParams(1<<20), 42, 7)
	if err != nil {
		b.Fatal(err)
	}
	benchIngest(b, fed)
	fed.Server.SetPartyLink("B", 2*time.Millisecond)
	fed.Server.SetPartyLink("C", 2*time.Millisecond)
	if _, err := fed.Search("A", []uint64{10, 11}, 3); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Search("A", []uint64{10, 11}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCacheParams(cacheBytes int64) core.Params {
	p := core.DefaultParams()
	p.W = 512
	p.Z = 9
	p.Z1 = 5
	p.Epsilon = 0.5
	p.K = 5
	p.CacheBytes = cacheBytes
	return p
}

func benchIngest(b *testing.B, fed *Federation) {
	b.Helper()
	for _, name := range []string{"B", "C"} {
		p, _ := fed.Party(name)
		if err := p.IngestDocument(textkit.NewDocument(0, -1, nil,
			[]textkit.TermID{10, 10, 11})); err != nil {
			b.Fatal(err)
		}
	}
}
