package federation

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"csfltr/internal/chaos"
	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/resilience"
)

// exchangesSent sums the reverse top-K exchanges relayed to every party.
func exchangesSent(fed *Federation) int64 {
	var n int64
	for _, p := range fed.Parties {
		n += fed.Server.metrics().exchangesFor(p.Name).Value()
	}
	return n
}

// ledgerOf lists what the querier has spent on and replayed from each
// peer.
func ledgerOf(t *testing.T, fed *Federation, from string) string {
	t.Helper()
	src, err := fed.Party(from)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, p := range fed.Parties {
		out += fmt.Sprintf("%s: spent %v replayed %d; ", p.Name,
			src.Accountant().Spent(p.Name), replaysOf(src.Accountant(), p.Name))
	}
	return out
}

// replaysOf returns the zero-spend replays acc's ledger records for peer.
func replaysOf(acc *dp.Accountant, peer string) int64 {
	for _, row := range acc.Ledger() {
		if row.Peer == peer {
			return row.Replays
		}
	}
	return 0
}

// singleExchanges answers searches the way they were sent before a
// party's terms shared a message — and the way the benchmark's
// ladder.searchParts still measures them: one plan per term, then one
// RTKWithPlan per (party, term) in roster order, each spending first.
// answered holds what earlier searches got per (party, term), which a
// cache-on search replays instead of asking again.
type singleExchanges struct {
	t        *testing.T
	fed      *Federation
	answered map[string]cachedTask
}

func (s *singleExchanges) search(from string, terms []uint64, k int) ([]SearchHit, core.Cost) {
	s.t.Helper()
	src, err := s.fed.Party(from)
	if err != nil {
		s.t.Fatal(err)
	}
	plans := make([]*core.Plan, len(terms))
	for i, term := range terms {
		plans[i] = src.Querier().Plan(term)
	}
	type key struct {
		party string
		doc   int
	}
	scores := make(map[key]float64)
	var total core.Cost
	for _, party := range s.fed.Parties {
		if party.Name == from {
			continue
		}
		owner, err := s.fed.Server.OwnerFor(party.Name, FieldBody)
		if err != nil {
			s.t.Fatal(err)
		}
		for _, plan := range plans {
			id := fmt.Sprintf("%s/%d", party.Name, plan.Term())
			out, replay := s.answered[id]
			if !replay {
				if err := src.Accountant().Spend(party.Name, s.fed.Params.Epsilon); err != nil {
					s.t.Fatal(err)
				}
				if out.docs, out.cost, err = core.RTKWithPlan(plan, owner, s.fed.Params.K); err != nil {
					s.t.Fatal(err)
				}
				if s.answered != nil {
					s.answered[id] = out
				}
			} else {
				src.Accountant().Replayed(party.Name)
			}
			total.Add(out.cost)
			for _, dc := range out.docs {
				if dc.Count > 0 {
					scores[key{party.Name, dc.DocID}] += dc.Count
				}
			}
		}
	}
	hits := make([]SearchHit, 0, len(scores))
	for kk, score := range scores {
		hits = append(hits, SearchHit{Party: kk.party, DocID: kk.doc, Score: score})
	}
	slices.SortFunc(hits, func(a, b SearchHit) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Party, b.Party), cmp.Compare(a.DocID, b.DocID))
	})
	return hits[:min(k, len(hits))], total
}

// TestSearchEqualsSingleExchanges: at epsilon 0.5 and Parallelism 1 a
// search that sends each party one batched exchange returns the hits,
// scores and cost — and leaves the ledger — of the same search sent as
// one exchange per (party, term), unsharded and on 4 x 2 shards, cache
// off and on. With the cache on, the second search repeats a term of the
// first: every party has it in the task tier and is sent a batch of one.
func TestSearchEqualsSingleExchanges(t *testing.T) {
	for _, tc := range []struct {
		name             string
		shards, replicas int
		cacheBytes       int64
	}{
		{"unsharded", 0, 0, 0},
		{"unsharded, cache on", 0, 0, 1 << 20},
		{"4x2 shards", 4, 2, 0},
		{"4x2 shards, cache on", 4, 2, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testParams()
			p.Epsilon, p.Parallelism = 0.5, 1
			p.Shards, p.Replicas = tc.shards, tc.replicas
			p.CacheBytes = tc.cacheBytes
			batched := shardTestFedParams(t, p)
			p.CacheBytes = 0 // the replay keeps its own record of what was answered
			singles := &singleExchanges{t: t, fed: shardTestFedParams(t, p)}
			if tc.cacheBytes > 0 {
				singles.answered = make(map[string]cachedTask)
			}
			for _, terms := range [][]uint64{{3, 7, 12}, {7, 20}, {1, 4, 9, 5}} {
				before := exchangesSent(batched)
				got, err := batched.Search("A", terms, 5)
				if err != nil {
					t.Fatal(err)
				}
				if sent := exchangesSent(batched) - before; sent != 2 {
					t.Fatalf("terms %v: %d exchanges for 2 parties", terms, sent)
				}
				wantHits, wantCost := singles.search("A", terms, 5)
				if len(wantHits) == 0 {
					t.Fatalf("terms %v: degenerate, no hits", terms)
				}
				if !reflect.DeepEqual(got.Hits, wantHits) || got.Cost != wantCost {
					t.Fatalf("terms %v: batched search differs from single exchanges:\n got %+v at %+v\nwant %+v at %+v",
						terms, got.Hits, got.Cost, wantHits, wantCost)
				}
				if a, b := ledgerOf(t, batched, "A"), ledgerOf(t, singles.fed, "A"); a != b {
					t.Fatalf("terms %v: ledgers differ:\n got %s\nwant %s", terms, a, b)
				}
			}
			if tc.cacheBytes > 0 {
				a, _ := batched.Party("A")
				if replaysOf(a.Accountant(), "B") != 1 {
					t.Fatalf("the repeated term was not replayed from the task tier: %s", ledgerOf(t, batched, "A"))
				}
			}
		})
	}
}

// TestSearchNoisyIdenticalAcrossParallelism: each owner receives exactly
// one batch per search and draws in term order, so a noisy search no
// longer depends on how the pool schedules it. (One client at a time:
// concurrent searches still interleave their draws at an owner.)
func TestSearchNoisyIdenticalAcrossParallelism(t *testing.T) {
	var want []*SearchResult
	for _, workers := range []int{1, 2, 8} {
		p := testParams()
		p.Epsilon, p.Parallelism = 0.5, workers
		fed := shardTestFedParams(t, p)
		for i, terms := range shardTestTerms {
			got, err := fed.Search("A", terms, 5)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				want = append(want, got)
			} else if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("Parallelism %d, terms %v: noisy result differs from Parallelism 1:\n got %+v\nwant %+v",
					workers, terms, got, want[i])
			}
		}
	}
	noiseless := shardTestFed(t, 0, 0)
	plain, err := noiseless.Search("A", shardTestTerms[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(plain.Hits, want[0].Hits) {
		t.Fatal("degenerate: the noisy scores equal the noiseless ones")
	}
}

// TestSearchChunksAboveBatchCap: a search of more terms than one
// exchange may carry sends each party ceil(terms / cap) of them, and
// answers what the same terms answer a few at a time.
func TestSearchChunksAboveBatchCap(t *testing.T) {
	fed := shardTestFed(t, 0, 0)
	terms := make([]uint64, 2*core.MaxRTKBatch+3)
	for i := range terms {
		terms[i] = uint64(i)
	}
	res, err := fed.Search("A", terms, 50)
	if err != nil {
		t.Fatal(err)
	}
	if sent := exchangesSent(fed); sent != 2*3 {
		t.Fatalf("%d terms to 2 parties went in %d exchanges, want 6", len(terms), sent)
	}
	if res.Parties[0].Queries != len(terms) || res.Cost.Messages != 2*len(terms) {
		t.Fatalf("report %+v, cost %+v for %d terms", res.Parties[0], res.Cost, len(terms))
	}
	scores := make(map[SearchHit]float64)
	for lo := 0; lo < len(terms); lo += 5 {
		part, err := shardTestFed(t, 0, 0).Search("A", terms[lo:min(lo+5, len(terms))], 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range part.Hits {
			scores[SearchHit{Party: h.Party, DocID: h.DocID}] += h.Score
		}
	}
	for _, h := range res.Hits {
		if want := scores[SearchHit{Party: h.Party, DocID: h.DocID}]; math.Abs(h.Score-want) > 1e-9 {
			t.Fatalf("hit %+v scores %v over the terms taken five at a time", h, want)
		}
	}
}

// TestChaosExchangeDropsWholeParty: an injected fault hits an exchange,
// not a term, so a party whose link errors contributes all of its terms
// or none; the budget of every query was spent before dispatch either
// way, and the audit ledger, the accountant and the per-query costs
// agree on it. A retried exchange asks for all k queries again.
func TestChaosExchangeDropsWholeParty(t *testing.T) {
	terms := []uint64{5, 42, 133}
	p := chaosSearchParams()
	fed := chaosFedUnderTest(t, p, 20) // P0 down, P1's exchange fails once and is retried (see TestDegradedSearchSeededChaos)
	fed.Server.EnableTracing(TraceConfig{})
	src, _ := fed.Party("Q")
	res, traceID, err := fed.SearchTraced("Q", terms, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := fed.Server.metrics()
	for _, rep := range res.Parties {
		if rep.Queries != len(terms) {
			t.Fatalf("%s: %d queries spent for, want %d", rep.Party, rep.Queries, len(terms))
		}
		if got, want := src.Accountant().Spent(rep.Party), float64(len(terms))*p.Epsilon; got != want {
			t.Fatalf("%s: accountant has %v, want %v (spent before dispatch, answered or not)", rep.Party, got, want)
		}
		// One exchange, plus one per retry; a retry re-sends every query.
		sent := m.exchangesFor(rep.Party).Value()
		msgs := m.relayFor(rep.Party, opQuery).msgs.Value()
		answered := 0
		if rep.Outcome == OutcomeOK {
			answered = len(terms)
		}
		if sent != int64(1+rep.Retries) || msgs != sent*int64(len(terms))+int64(answered) {
			t.Fatalf("%s: %d exchanges and %d relayed messages for %d retries, %d answers",
				rep.Party, sent, msgs, rep.Retries, answered)
		}
	}
	byParty := map[string]PartyReport{}
	for _, rep := range res.Parties {
		byParty[rep.Party] = rep
	}
	if byParty["P0"].Outcome != OutcomeFailed || byParty["P1"].Outcome != OutcomeOK || byParty["P1"].Retries != 1 {
		t.Fatalf("seed 20 regime lost: %+v", res.Parties)
	}
	for _, h := range res.Hits {
		if h.Party == "P0" {
			t.Fatalf("hit %+v from the party whose exchange failed", h)
		}
	}
	audit, ok := fed.Server.AuditFor(traceID)
	if !ok {
		t.Fatal("no audit record")
	}
	var spent float64
	for _, peer := range []string{"P0", "P1", "P2"} {
		spent += src.Accountant().Spent(peer)
	}
	if audit.EpsilonSpent != spent || spent != float64(3*len(terms))*p.Epsilon {
		t.Fatalf("audit says %v, accountant %v, per-query cost %v", audit.EpsilonSpent, spent, float64(3*len(terms))*p.Epsilon)
	}
	if audit.Messages != int64(res.Cost.Messages) || res.Cost.Messages != 2*len(terms) {
		t.Fatalf("audit %d messages, cost %+v: want one per answered query of the 2 surviving parties", audit.Messages, res.Cost)
	}

	// An open breaker skips the whole party before any of it is spent.
	for n := 0; n < 2; n++ {
		if _, err := fed.Search("Q", terms, 5); err != nil {
			t.Fatal(err)
		}
	}
	before := src.Accountant().Spent("P0")
	sentBefore := m.exchangesFor("P0").Value()
	res, err = fed.Search("Q", terms, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parties[0].Outcome != OutcomeSkipped || src.Accountant().Spent("P0") != before || m.exchangesFor("P0").Value() != sentBefore {
		t.Fatalf("P0 with an open breaker: %+v, spent %v -> %v", res.Parties[0], before, src.Accountant().Spent("P0"))
	}
}

// TestChaosExchangeFaultIsPerExchange: the link's fault decision is
// drawn once per exchange, from all of its queries: at a 50 % error rate
// and one attempt, a party answers every term of a search or none, never
// a part.
func TestChaosExchangeFaultIsPerExchange(t *testing.T) {
	p := chaosSearchParams()
	p.MinParties = 1
	fed := chaosFedUnderTest(t, p, 77)
	policy := fastPolicy()
	policy.MaxAttempts, policy.FailureThreshold = 1, 1000
	fed.SetResiliencePolicy(policy)
	in := fed.Server.chaosInj.Load()
	in.SetProfile("P0", chaos.Profile{})
	in.SetProfile("P1", chaos.Profile{ErrorRate: 0.5})
	failed, ok := 0, 0
	for s := 0; s < 30; s++ {
		terms := []uint64{uint64(3 * s), uint64(3*s + 1), uint64(3*s + 2)}
		res, err := fed.Search("Q", terms, 5)
		if err != nil {
			t.Fatal(err)
		}
		switch rep := res.Parties[1]; rep.Outcome {
		case OutcomeFailed:
			failed++
		case OutcomeOK:
			ok++
		default:
			t.Fatalf("P1: %+v", rep)
		}
	}
	if failed == 0 || ok == 0 {
		t.Fatalf("degenerate: %d failed, %d ok searches at a 50%% error rate", failed, ok)
	}
	// Every exchange relayed 3 queries; only the answered ones 3 replies.
	if msgs := fed.Server.metrics().relayFor("P1", opQuery).msgs.Value(); msgs != int64(30*3+ok*3) {
		t.Fatalf("P1 relayed %d messages over 30 exchanges, %d answered", msgs, ok)
	}
}

// TestLeaseAbandonedExchangeReleases: resilience.Call walks away from
// an exchange that outlives its deadline, and the exchange runs on —
// through AnswerRTKBatch, the recovery of all k replies and their
// release — beside the retry. With a deadline no attempt can meet, every
// attempt is abandoned; the answers taken while they finish, and after,
// must equal the undisturbed ones (TestLeaseAbandonedAttemptsRelease,
// for k = 3 and on shards, where an exchange also holds the raw replies).
func TestLeaseAbandonedExchangeReleases(t *testing.T) {
	p := testParams()
	p.Shards, p.Replicas = 2, 2
	fed := shardTestFedParams(t, p)
	src, _ := fed.Party("A")
	owner, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*core.Plan{src.Querier().Plan(3), src.Querier().Plan(7), src.Querier().Plan(12)}
	want, wantCosts, err := core.RTKWithPlans(plans, owner, 5)
	if err != nil || len(want[0]) == 0 {
		t.Fatalf("undisturbed recovery: %v, %v", want, err)
	}
	var running sync.WaitGroup
	attempt := func() (exchangeOut, error) {
		defer running.Done()
		var o exchangeOut
		var err error
		o.docs, o.costs, err = core.RTKWithPlans(plans, owner, 5)
		if err == nil && (!reflect.DeepEqual(o.docs, want) || !reflect.DeepEqual(o.costs, wantCosts)) {
			err = fmt.Errorf("an abandoned exchange recovered %v at %+v, want %v at %+v", o.docs, o.costs, want, wantCosts)
			t.Error(err)
		}
		return o, err
	}
	hurried := resilience.DefaultPolicy().WithSleep(func(time.Duration) {})
	hurried.MaxAttempts, hurried.CallTimeout = 6, time.Nanosecond
	for round := 0; round < 20; round++ {
		running.Add(hurried.MaxAttempts)
		_, attempts, err := resilience.Call(hurried, uint64(round), attempt)
		if err == nil { // an attempt beat a 1 ns timer to the select: the rest were never made
			running.Add(attempts - hurried.MaxAttempts)
		} else if !errors.Is(err, resilience.ErrDeadlineExceeded) {
			t.Fatal(err)
		}
		got, costs, err := core.RTKWithPlans(plans, owner, 5)
		if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(costs, wantCosts) {
			t.Fatalf("round %d: the retried exchange answered %v at %+v (%v), want %v at %+v", round, got, costs, err, want, wantCosts)
		}
	}
	running.Wait()
	if got, _, err := core.RTKWithPlans(plans, owner, 5); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after every abandoned exchange finished: %v (%v), want %v", got, err, want)
	}
}
