package federation

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"csfltr/internal/chaos"
	"csfltr/internal/core"
	"csfltr/internal/resilience"
	"csfltr/internal/textkit"
)

// chaosSearchParams: sequential fan-out (DP noise draw order is
// scheduling-dependent under concurrency, and this suite asserts
// bit-identical replays WITH a live epsilon), degraded mode with a
// 2-party quorum.
func chaosSearchParams() core.Params {
	p := testParams()
	p.Epsilon = 0.5
	p.MinParties = 2
	p.Parallelism = 1
	return p
}

// fastPolicy is the suite's retry policy: two attempts, no real sleeps,
// breaker trips after 3 consecutive failures and stays open.
func fastPolicy() resilience.Policy {
	p := resilience.DefaultPolicy()
	p.MaxAttempts = 2
	p.BaseBackoff = time.Microsecond
	p.MaxBackoff = 10 * time.Microsecond
	p.CallTimeout = 30 * time.Second
	p.FailureThreshold = 3
	p.OpenTimeout = time.Hour // stays open for the whole test
	return p
}

// chaosFedUnderTest builds the acceptance federation: querier Q plus
// three data parties, P0 hard-down and P1 at a 30% injected error rate,
// all decisions derived from one chaos seed.
func chaosFedUnderTest(t *testing.T, params core.Params, chaosSeed uint64) *Federation {
	t.Helper()
	fed, err := NewDeterministic([]string{"Q", "P0", "P1", "P2"}, params, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range fed.Parties[1:] {
		rng := rand.New(rand.NewSource(int64(pi) + 1))
		for id := 0; id < 30; id++ {
			body := make([]textkit.TermID, 20)
			for j := range body {
				body[j] = textkit.TermID(rng.Intn(200))
			}
			if err := p.IngestDocument(textkit.NewDocument(id, -1, nil, body)); err != nil {
				t.Fatal(err)
			}
		}
	}
	in := chaos.New(chaosSeed)
	in.SetProfile("P0", chaos.Profile{Down: true})
	in.SetProfile("P1", chaos.Profile{ErrorRate: 0.3})
	fed.Server.SetChaos(in)
	fed.SetResiliencePolicy(fastPolicy())
	return fed
}

// reportString flattens a per-party report for comparison.
func reportString(reps []PartyReport) string {
	var b strings.Builder
	for _, r := range reps {
		fmt.Fprintf(&b, "%s=%s(q=%d,r=%d);", r.Party, r.Outcome, r.Queries, r.Retries)
	}
	return b.String()
}

// TestDegradedSearchSeededChaos is the PR's acceptance test: with one
// party hard-down and one at a 30% error rate, a quorum-policy search
// returns a Partial result ranked identically across two runs with the
// same seed; the dead party's failed exchanges — one per search — trip
// its breaker so the search after the third skips it, spending zero DP
// budget on queries never sent; and the open breaker is observable via
// /v1/metrics.
func TestDegradedSearchSeededChaos(t *testing.T) {
	terms := []uint64{5, 42, 133}
	run := func() (*Federation, *SearchResult) {
		// Seed 20 realizes the interesting regime: P1's 30% error rate
		// bites (its exchange is retried) but the retry saves it, in this
		// search and the three that follow.
		fed := chaosFedUnderTest(t, chaosSearchParams(), 20)
		res, err := fed.Search("Q", terms, 5)
		if err != nil {
			t.Fatalf("degraded search failed outright: %v", err)
		}
		return fed, res
	}
	fed, res := run()
	if !res.Partial {
		t.Fatal("result with a hard-down party is not Partial")
	}
	if len(res.Hits) == 0 {
		t.Fatal("degenerate test: no hits from surviving parties")
	}
	byParty := map[string]PartyReport{}
	for _, rep := range res.Parties {
		byParty[rep.Party] = rep
	}
	if byParty["P0"].Outcome != OutcomeFailed {
		t.Fatalf("P0 outcome %+v, want failed", byParty["P0"])
	}
	if byParty["P2"].Outcome != OutcomeOK {
		t.Fatalf("P2 outcome %+v, want ok", byParty["P2"])
	}
	if byParty["P0"].Retries == 0 {
		t.Fatal("down party recorded no retries")
	}
	if byParty["P1"].Outcome != OutcomeOK || byParty["P1"].Retries == 0 {
		t.Fatalf("P1 report %+v, want ok with retries (seed 20 regime)", byParty["P1"])
	}
	for _, hit := range res.Hits {
		if hit.Party == "P0" {
			t.Fatalf("hit %+v from the dead party", hit)
		}
	}

	// Bit-identical replay: a second federation with the same seeds must
	// reproduce the ranking AND the per-party outcome report exactly.
	_, res2 := run()
	if len(res2.Hits) != len(res.Hits) {
		t.Fatalf("replay: %d hits vs %d", len(res2.Hits), len(res.Hits))
	}
	for i := range res.Hits {
		if res.Hits[i] != res2.Hits[i] {
			t.Fatalf("replay hit %d: %+v vs %+v", i, res2.Hits[i], res.Hits[i])
		}
	}
	if a, b := reportString(res.Parties), reportString(res2.Parties); a != b {
		t.Fatalf("replay party report differs:\n  %s\n  %s", b, a)
	}

	// A search sends P0 one exchange, so one failed search is one breaker
	// outcome: the third consecutive one trips it (threshold 3).
	if st := fed.BreakerState("P0"); st != resilience.Closed {
		t.Fatalf("P0 breaker state %v after one failed exchange, want Closed", st)
	}
	for n := 2; n <= 3; n++ {
		if _, err := fed.Search("Q", terms, 5); err != nil {
			t.Fatalf("search %d: %v", n, err)
		}
	}
	if st := fed.BreakerState("P0"); st != resilience.Open {
		t.Fatalf("P0 breaker state %v after three failed exchanges, want Open", st)
	}

	// The next search on the same federation: P0 is skipped before any
	// budget is spent on it.
	src, _ := fed.Party("Q")
	spentP0 := src.Accountant().Spent("P0")
	spentP2 := src.Accountant().Spent("P2")
	res3, err := fed.Search("Q", terms, 5)
	if err != nil {
		t.Fatalf("search after the breaker opened: %v", err)
	}
	byParty3 := map[string]PartyReport{}
	for _, rep := range res3.Parties {
		byParty3[rep.Party] = rep
	}
	if byParty3["P0"].Outcome != OutcomeSkipped || byParty3["P0"].Queries != 0 {
		t.Fatalf("P0 report %+v once its breaker is open, want skipped with 0 queries", byParty3["P0"])
	}
	if got := src.Accountant().Spent("P0"); got != spentP0 {
		t.Fatalf("budget spent on a skipped party: %v -> %v", spentP0, got)
	}
	if got := src.Accountant().Spent("P2"); got <= spentP2 {
		t.Fatalf("no budget spent on a live party: %v -> %v", spentP2, got)
	}

	// The open breaker is observable through the metrics route.
	ts := httptest.NewServer(HTTPHandler(fed.Server))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := MetricBreakerState + `{party="P0"} 2`
	if !strings.Contains(string(body), want) {
		t.Fatalf("/v1/metrics does not expose the open breaker: want line %q in:\n%s", want, body)
	}
	if !strings.Contains(string(body), MetricInjectedFaults) {
		t.Fatal("/v1/metrics does not expose injected fault counters")
	}
	if !strings.Contains(string(body), MetricDegradedSearches) {
		t.Fatal("/v1/metrics does not expose the degraded-search counter")
	}
}

// TestChaosSearchDeterministicAcrossPools: fault decisions are keyed on
// call content, not arrival order, so a faulty search must return the
// same ranking and outcomes at every pool size (epsilon 0 — DP noise
// draw order IS scheduling-dependent, which is exactly why the
// acceptance test above pins Parallelism=1 instead).
func TestChaosSearchDeterministicAcrossPools(t *testing.T) {
	terms := []uint64{5, 42, 133, 77}
	build := func(workers int) *Federation {
		p := chaosSearchParams()
		p.Epsilon = 0
		p.Parallelism = workers
		return chaosFedUnderTest(t, p, 9001)
	}
	base := build(1)
	want, err := base.Search("Q", terms, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Hits) == 0 {
		t.Fatal("degenerate test: no hits")
	}
	for _, workers := range []int{2, 4, 0} {
		fed := build(workers)
		got, err := fed.Search("Q", terms, 5)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("workers=%d: %d hits, want %d", workers, len(got.Hits), len(want.Hits))
		}
		for i := range want.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Fatalf("workers=%d: hit %d = %+v, want %+v", workers, i, got.Hits[i], want.Hits[i])
			}
		}
		if a, b := reportString(got.Parties), reportString(want.Parties); a != b {
			t.Fatalf("workers=%d: party report differs:\n  %s\n  %s", workers, a, b)
		}
		if got.Partial != want.Partial || got.Cost != want.Cost {
			t.Fatalf("workers=%d: partial/cost %v %+v, want %v %+v",
				workers, got.Partial, got.Cost, want.Partial, want.Cost)
		}
	}
}

// TestDegradedSearchAvailabilityTable: over a fixed 20-search stream
// with P0 hard-down, both survivors at the row's injected error rate
// and a one-party quorum, every search answers Partial — none full (P0
// never answers), none failed — retries strictly grow with the rate,
// P0's breaker ends Open, and a same-seed rerun reproduces every count.
func TestDegradedSearchAvailabilityTable(t *testing.T) {
	type counts struct {
		ok, partial, failed, retries int
		p0                           resilience.State
	}
	const searches = 20
	run := func(rate float64) counts {
		p := chaosSearchParams()
		p.MinParties = 1
		fed := chaosFedUnderTest(t, p, 130)
		policy := fastPolicy()
		policy.MaxAttempts = 3 // the default; with two, the 30% row loses both survivors in one search
		fed.SetResiliencePolicy(policy)
		in := fed.Server.chaosInj.Load()
		in.SetProfile("P1", chaos.Profile{ErrorRate: rate})
		in.SetProfile("P2", chaos.Profile{ErrorRate: rate})
		rng := rand.New(rand.NewSource(11))
		var c counts
		for s := 0; s < searches; s++ {
			terms := []uint64{uint64(rng.Intn(200)), uint64(rng.Intn(200)), uint64(rng.Intn(200))}
			res, err := fed.Search("Q", terms, 5)
			if res != nil {
				for _, rep := range res.Parties {
					c.retries += rep.Retries
				}
			}
			switch {
			case err != nil:
				c.failed++
			case res.Partial:
				c.partial++
			default:
				c.ok++
			}
		}
		c.p0 = fed.BreakerState("P0")
		return c
	}
	prevRetries := -1
	for _, rate := range []float64{0, 0.1, 0.3} {
		got := run(rate)
		if got.partial != searches {
			t.Fatalf("rate %v: %+v, want all %d searches Partial under MinParties=1 with P0 down", rate, got, searches)
		}
		if got.p0 != resilience.Open {
			t.Fatalf("rate %v: dead party's breaker ended %v, want Open", rate, got.p0)
		}
		if got.retries <= prevRetries {
			t.Fatalf("rate %v: %d retries, not above the %d of the previous rate", rate, got.retries, prevRetries)
		}
		prevRetries = got.retries
		if again := run(rate); again != got {
			t.Fatalf("rate %v: same-seed rerun differs: %+v vs %+v", rate, again, got)
		}
	}
}

// TestSearchQuorumLost: losing more parties than MinParties allows must
// fail with ErrQuorum while still returning the per-party report.
func TestSearchQuorumLost(t *testing.T) {
	p := chaosSearchParams()
	p.MinParties = 3
	fed := chaosFedUnderTest(t, p, 123)
	in := fed.Server.chaosInj.Load()
	in.SetProfile("P1", chaos.Profile{Partitioned: true})
	in.SetProfile("P2", chaos.Profile{Down: true})
	res, err := fed.Search("Q", []uint64{5, 42}, 5)
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("err = %v, want ErrQuorum", err)
	}
	if res == nil || len(res.Parties) != 3 {
		t.Fatalf("quorum loss dropped the party report: %+v", res)
	}
	for _, rep := range res.Parties {
		if rep.Outcome != OutcomeFailed {
			t.Fatalf("party %s outcome %s, want failed", rep.Party, rep.Outcome)
		}
	}
}

// TestStrictModeStillFails: without a quorum policy (MinParties 0) any
// party failure must fail the whole search, exactly as before the
// resilience layer existed.
func TestStrictModeStillFails(t *testing.T) {
	p := chaosSearchParams()
	p.MinParties = 0
	fed := chaosFedUnderTest(t, p, 123)
	if _, err := fed.Search("Q", []uint64{5, 42}, 5); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("strict search with a dead party returned %v, want an injected fault", err)
	}
}
