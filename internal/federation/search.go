package federation

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csfltr/internal/core"
	"csfltr/internal/qcache"
	"csfltr/internal/resilience"
	"csfltr/internal/telemetry"
)

// ErrQuorum is returned when degraded-mode search loses so many parties
// that fewer than Params.MinParties answered.
var ErrQuorum = errors.New("federation: quorum lost: too few parties answered")

// SearchHit is one federated search result: a document at some party
// with its aggregated relevance score (sum of estimated per-term counts,
// the relevance surrogate of Definition 3).
type SearchHit struct {
	Party string
	DocID int
	Score float64
}

// PartyReport is one party's outcome in a federated search.
type PartyReport struct {
	Party string
	// Outcome is OutcomeOK, OutcomeFailed, OutcomeSkipped or
	// OutcomeStale.
	Outcome string
	// Err describes the first failure for a failed party ("" otherwise).
	Err string
	// Queries is the number of reverse top-K queries actually sent to
	// the party (0 for a skipped party; cache replays are counted in
	// Cached instead — no query sent, no budget spent).
	Queries int
	// Retries is the number of retry attempts beyond each exchange's
	// first try (a search sends a party one exchange, see Search).
	Retries int
	// Cached is the number of this party's answers served from the
	// federated answer cache at zero privacy cost.
	Cached int
	// StaleFor is the age of the oldest cache entry used to backfill
	// this party when Outcome is OutcomeStale (0 otherwise).
	StaleFor time.Duration
}

// SearchResult is the full outcome of one federated search: the merged
// ranking plus the per-party availability report.
type SearchResult struct {
	Hits []SearchHit
	Cost core.Cost
	// Partial is true when at least one party contributed nothing —
	// skipped or failed with no stale backfill — so Hits covers only
	// the parties that answered (freshly or from cache).
	Partial bool
	// Parties reports every data party's outcome, in roster order.
	Parties []PartyReport
}

// searchTask is one (party, term) reverse top-K query of a federated
// search fan-out.
type searchTask struct {
	party string
	plan  *core.Plan
	// Cache identity and state (zero-valued when the cache is off): a
	// cached task is never dispatched — its slot is prefilled from hit.
	full, base qcache.Key
	cached     bool
	hit        cachedTask
}

// searchExchange is one message of a search's fan-out: the tasks of one
// party that still need an answer — all of them, up to
// core.MaxRTKBatch — asked in one AnswerRTKBatch under one deadline,
// one retry loop and one breaker outcome. They succeed or fail together.
type searchExchange struct {
	party string
	owner core.OwnerAPI
	tasks []int // indexes into the search's task list, ascending
}

// exchangeOut is one exchange's result, produced inside a
// resilience.Call so a timed-out attempt can be abandoned without
// racing the merge: documents and cost per task of the exchange.
type exchangeOut struct {
	docs  [][]core.DocCount
	costs []core.Cost
}

// dedupeTerms drops repeated terms, preserving first-seen order.
func dedupeTerms(terms []uint64) []uint64 {
	seen := make(map[uint64]struct{}, len(terms))
	out := make([]uint64, 0, len(terms))
	for _, term := range terms {
		if _, dup := seen[term]; dup {
			continue
		}
		seen[term] = struct{}{}
		out = append(out, term)
	}
	return out
}

// Search runs a whole query against every other party: one reverse
// top-K document query per (query term, party), merged by summing
// per-term count estimates per document, truncated to the k globally
// best hits. This is the user-facing "search the federation" operation
// that the augmentation pipeline uses internally for training data
// generation.
//
// With Params.CacheBytes > 0 the search goes through the federated
// answer cache (see cache.go and internal/qcache): a repeat of a recent
// identical query replays the cached merged result bit-identically,
// spending zero privacy budget (DP post-processing); concurrent
// identical searches are coalesced onto one fan-out via singleflight;
// and individual (party, term) answers are replayed from the task tier
// even when the whole query misses. With CacheBytes == 0 (the default)
// the uncached path below runs unchanged.
//
// Each party receives one exchange carrying the queries of all its
// terms that no cache tier answered (core.OwnerAPI.AnswerRTKBatch; a
// query of more than core.MaxRTKBatch terms is split), and the
// exchanges, which are independent, are dispatched onto a bounded worker
// pool (Params.Parallelism workers; 0 defaults to GOMAXPROCS, 1 is the
// sequential baseline): the pool overlaps parties, not the terms of one
// party. The result is identical at every pool size: each term's
// obfuscated query plan is built once, in deterministic term order, and
// shared read-only by all parties' tasks; an owner answers its batch in
// term order, one noise draw per term; per-task results land in a slot
// indexed by task and are merged in task order, so score accumulation
// order — and therefore floating-point rounding and the final ranking —
// never depends on scheduling. (Concurrent searches still interleave
// their draws at an owner.)
//
// Privacy budget is spent per (term, party) query against the querier's
// accountant, and it is spent for the whole fan-out *before* dispatch:
// a budget refusal aborts the search deterministically, before any query
// leaves the party. Cache replays spend nothing and are recorded with
// dp.Accountant.Replayed.
//
// Each exchange runs under the federation's resilience policy: bounded
// retries with deterministic backoff and a per-attempt deadline; a retry
// asks for the whole batch again. With Params.MinParties > 0 the search
// degrades instead of failing: a party whose circuit breaker is open is
// skipped before any of its budget is spent, a party whose exchange
// failed is dropped from the merge (one breaker outcome per exchange),
// and the search succeeds with Partial set as long as at least
// MinParties parties answered — otherwise it returns ErrQuorum
// alongside the per-party report. A batch is answered whole or not at
// all, so the ranking never depends on which fraction of a party's
// queries happened to finish. When Params.CacheMaxStale > 0 a skipped
// or failed party may instead be backfilled from recent cache entries
// (all of the query's terms, bounded age — reported per party as
// OutcomeStale with StaleFor); a backfilled party counts toward the
// quorum and toward a complete (non-Partial) result.
//
//csfltr:releases
func (f *Federation) Search(from string, terms []uint64, k int) (*SearchResult, error) {
	res, _, err := f.SearchTraced(from, terms, k)
	return res, err
}

// SearchTraced is Search plus its trace identity: with tracing enabled
// (Server.EnableTracing) it returns the trace ID under which the whole
// query's span tree was recorded — fan-out, per-party reverse
// top-K exchanges with retry attempts and injected faults, cache replays,
// stale serves and the merge — retrievable via Server.TraceTree or
// GET /v1/trace/{id}, alongside one flight-recorder audit record. With
// tracing off the trace ID is "" and the search runs the untraced hot
// path unchanged.
//
//csfltr:releases
func (f *Federation) SearchTraced(from string, terms []uint64, k int) (*SearchResult, string, error) {
	m := f.Server.metrics()
	m.searchReqs.Inc()
	src, err := f.Party(from)
	if err != nil {
		return nil, "", err
	}
	if k <= 0 {
		k = f.Params.K
	}
	uniq := dedupeTerms(terms)
	root := m.reg.StartRootSpan("search", m.searchDur)
	if root.Context().Valid() {
		root.AddAttr(
			telemetry.AStr("querier", from),
			telemetry.AInt("terms", int64(len(uniq))),
			telemetry.AInt("k", int64(k)))
	}
	run := &searchRun{parent: root.Context(), audit: f.Server.TracingEnabled(), terms: len(uniq)}
	start := time.Now()
	res, err := f.searchDispatch(src, from, uniq, k, run)
	if err != nil && root.Context().Valid() {
		root.AddAttr(telemetry.AStr("error", err.Error()))
	}
	d := root.End()
	f.commitSearchAudit(run, from, k, start, d, res, err)
	if err == nil && res != nil {
		codec := f.Server.codecLabel()
		m.counter(MetricTransportBytes, telemetry.L("party", from), telemetry.L("api", apiSearch),
			telemetry.L("codec", codec)).Add(sizeSearchRelease(codec, res))
	}
	return res, root.Context().TraceID, err
}

// searchDispatch runs the cache and coalescing tiers in front of the
// fan-out, threading the per-query trace/audit state through.
//
//csfltr:releases
func (f *Federation) searchDispatch(src *Party, from string, uniq []uint64, k int,
	run *searchRun) (*SearchResult, error) {
	m := f.Server.metrics()
	c := f.cache()
	if c == nil {
		return f.searchUncached(src, from, uniq, k, run)
	}

	full, base := f.queryKeys(from, uniq, k)
	if v, ok := c.Get(full, base); ok {
		m.counter(MetricCacheLookups, telemetry.L("tier", cacheTierQuery), telemetry.L("result", cacheHit)).Inc()
		res := v.(*SearchResult)
		// Every party's whole contribution is a zero-spend replay.
		for _, rep := range res.Parties {
			for range uniq {
				src.account.Replayed(rep.Party)
			}
		}
		run.outcome = AuditReplay
		for _, rep := range res.Parties {
			run.replayed = append(run.replayed, rep.Party)
		}
		if run.parent.Valid() {
			sp := m.reg.StartChildSpan("search.cache.replay", run.parent, nil)
			sp.AddAttr(telemetry.AStr("tier", cacheTierQuery),
				telemetry.AInt("parties", int64(len(res.Parties))))
			sp.End()
		}
		return cloneSearchResult(res), nil
	}
	m.counter(MetricCacheLookups, telemetry.L("tier", cacheTierQuery), telemetry.L("result", cacheMiss)).Inc()

	// Coalesce concurrent identical searches: one leader fans out, every
	// concurrent duplicate shares its result (and its budget spend).
	v, err, leader := f.flight.Do(full, func() (any, error) {
		res, err := f.searchUncached(src, from, uniq, k, run)
		if err == nil && res != nil && allOK(res) {
			// Only fully-fresh complete results are cached at the query
			// tier: a degraded or stale-backfilled merge must not be
			// frozen past the outage that produced it.
			c.Put(full, base, searchResultSize(res), cloneSearchResult(res))
		}
		return res, err
	})
	if !leader {
		// The leader's closure — and therefore the leader's searchRun —
		// owns the fan-out's budget, bytes and spans. This caller's audit
		// record is a bare coalesced marker so budgets never double-count.
		m.counter(MetricCacheCoalesced).Inc()
		run.outcome = AuditCoalesced
		if run.parent.Valid() {
			sp := m.reg.StartChildSpan("search.coalesced", run.parent, nil)
			sp.End()
		}
	}
	res, _ := v.(*SearchResult)
	if res != nil && !leader {
		res = cloneSearchResult(res) // followers must not alias the leader's slices
	}
	return res, err
}

// allOK reports whether every party answered freshly and fully.
func allOK(res *SearchResult) bool {
	for _, rep := range res.Parties {
		if rep.Outcome != OutcomeOK {
			return false
		}
	}
	return true
}

// runPool executes fn(0..n-1) on at most `workers` workers, the caller
// being the first, returning when every task has finished. One worker
// runs the tasks in index order on the caller, starting no goroutine.
// More claim tasks from an atomic counter in index order, so workers stay
// busy without a scheduler goroutine or per-task channel traffic. The
// pool reports its pressure into the metrics' fanout gauges (in-flight
// tasks and queue depth). It is the worker pool of the search fan-out
// below.
func runPool(workers, n int, m *serverMetrics, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m.poolQueue.Add(float64(n))
	if workers = min(workers, n); workers == 1 {
		for i := 0; i < n; i++ {
			runTask(m, fn, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			runTask(m, fn, i)
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// runTask runs pool task i, moving it from the queue gauge to the
// in-flight one while it runs.
func runTask(m *serverMetrics, fn func(i int), i int) {
	m.poolQueue.Dec()
	m.poolInFlight.Inc()
	fn(i)
	m.poolInFlight.Dec()
}

// searchUncached is the fan-out path of Search: everything except the
// query-tier cache and singleflight, which wrap it. With the cache
// enabled it still consults the task tier per (party, term) and
// backfills lost parties from stale entries; with the cache disabled it
// is byte-for-byte the pre-cache search.
//
//csfltr:releases
func (f *Federation) searchUncached(src *Party, from string, terms []uint64, k int,
	run *searchRun) (*SearchResult, error) {
	m := f.Server.metrics()
	degraded := f.Params.MinParties > 0
	policy := f.ResiliencePolicy()
	c := f.cache() // nil when disabled

	// Deduplicate query terms, preserving first-seen order, and build
	// each term's obfuscated plan exactly once. Plan construction draws
	// from the querier's private randomness, so it stays on this
	// goroutine, in deterministic order.
	uniq := dedupeTerms(terms)
	plans := make([]*core.Plan, 0, len(uniq))
	for _, term := range uniq {
		plans = append(plans, src.querier.Plan(term))
	}

	// Enumerate the (party, term) fan-out in roster order and spend the
	// whole privacy budget up front: if any spend is refused the search
	// aborts before a single query is dispatched, exactly where the
	// sequential path would have stopped. Under the quorum policy a
	// party with an open breaker is skipped here, BEFORE its budget is
	// spent — the paper's accountant never charges for queries that are
	// never sent. A task whose answer is already cached is likewise
	// never spent for: the replay is free (post-processing) and the
	// accountant records it separately.
	result := &SearchResult{}
	var tasks []searchTask
	var exchanges []searchExchange
	// spans[ri] is the task range and the exchange range of
	// result.Parties[ri] (empty for a skipped party).
	type taskSpan struct{ start, count, xstart, xcount int }
	var spans []taskSpan
	for _, party := range f.Parties {
		if party.Name == from {
			continue
		}
		if degraded && !f.breakerFor(party.Name).Allow() {
			if run.parent.Valid() {
				sp := m.reg.StartChildSpan("search.skip", run.parent, nil)
				sp.AddAttr(telemetry.AStr("party", party.Name),
					telemetry.AStr("reason", "breaker_open"))
				sp.End()
			}
			result.Parties = append(result.Parties, PartyReport{
				Party:   party.Name,
				Outcome: OutcomeSkipped,
				Err:     resilience.ErrBreakerOpen.Error(),
			})
			spans = append(spans, taskSpan{})
			continue
		}
		owner, err := f.Server.OwnerFor(party.Name, FieldBody)
		if err != nil {
			return nil, err
		}
		var gens []uint64
		if c != nil {
			gens = party.groups[FieldBody].Generations()
		}
		start, xstart := len(tasks), len(exchanges)
		rep := PartyReport{Party: party.Name, Outcome: OutcomeOK}
		for _, plan := range plans {
			t := searchTask{party: party.Name, plan: plan}
			if c != nil {
				t.full, t.base = f.taskKeys(from, party.Name, plan.Term(), gens)
				if v, ok := c.Get(t.full, t.base); ok {
					m.counter(MetricCacheLookups, telemetry.L("tier", cacheTierTask), telemetry.L("result", cacheHit)).Inc()
					t.cached = true
					t.hit = v.(cachedTask)
					src.account.Replayed(party.Name)
					rep.Cached++
				} else {
					m.counter(MetricCacheLookups, telemetry.L("tier", cacheTierTask), telemetry.L("result", cacheMiss)).Inc()
				}
			}
			if !t.cached {
				if err := src.account.Spend(party.Name, f.Params.Epsilon); err != nil {
					// Snapshot the roster state for the audit record:
					// earlier parties' spends — and this party's partial
					// spend — already happened and stay on the books.
					if run.audit {
						rep.Outcome = OutcomeFailed
						rep.Err = err.Error()
						run.refused = append(
							append([]PartyReport(nil), result.Parties...), rep)
					}
					return nil, err
				}
				rep.Queries++
				if n := len(exchanges); n == xstart || len(exchanges[n-1].tasks) == core.MaxRTKBatch {
					exchanges = append(exchanges, searchExchange{party: party.Name, owner: owner,
						tasks: make([]int, 0, min(len(plans), core.MaxRTKBatch))})
				}
				x := &exchanges[len(exchanges)-1]
				x.tasks = append(x.tasks, len(tasks))
			}
			tasks = append(tasks, t)
		}
		spans = append(spans, taskSpan{start: start, count: len(plans),
			xstart: xstart, xcount: len(exchanges) - xstart})
		result.Parties = append(result.Parties, rep)
	}

	// Fan out on the worker pool, one unit of work per exchange. Each
	// exchange writes only its own tasks' slots, so workers never contend
	// on shared state; the fanout span measures the wall-clock of the
	// whole dispatch while the per-exchange rtk_query spans accumulate
	// worker time. The resilience wrapper bounds each attempt with the
	// policy deadline and retries transient failures with deterministic
	// backoff. Cached tasks are prefilled and belong to no exchange.
	docs := make([][]core.DocCount, len(tasks))
	costs := make([]core.Cost, len(tasks))
	errs := make([]error, len(exchanges))
	retries := make([]int, len(exchanges))
	for i := range tasks {
		if !tasks[i].cached {
			continue
		}
		docs[i], costs[i] = tasks[i].hit.docs, tasks[i].hit.cost
		if run.parent.Valid() {
			sp := m.reg.StartChildSpan("search.cache.replay", run.parent, nil)
			sp.AddAttr(telemetry.AStr("tier", cacheTierTask),
				telemetry.AStr("party", tasks[i].party),
				telemetry.AStr("term", f.TermHash(tasks[i].plan.Term())))
			sp.End()
		}
	}
	fanout := m.stageSpan(StageFanout, run.parent)
	fanoutCtx := fanout.Context() // the workers parent under it; fanout itself stays on this stack
	runPool(f.Params.Workers(len(exchanges)), len(exchanges), m, func(xi int) {
		x := exchanges[xi]
		xplans := make([]*core.Plan, len(x.tasks))
		for j, i := range x.tasks {
			xplans[j] = tasks[i].plan
		}
		sp := m.stageSpan(StageRTKQuery, fanoutCtx)
		spCtx := sp.Context() // the attempts parent under it; sp itself stays on this stack
		traced := spCtx.Valid()
		if traced {
			hashes := make([]string, len(xplans))
			for j, plan := range xplans {
				hashes[j] = f.TermHash(plan.Term())
			}
			sp.AddAttr(
				telemetry.AStr("party", x.party),
				telemetry.AStr("terms", strings.Join(hashes, ",")))
		}
		// The attempt counter is atomic because resilience.Call abandons
		// timed-out attempt goroutines: a late attempt can still be
		// running when the retry fires.
		var attemptN int64
		out, attempts, err := resilience.Call(policy, f.callSeed(x.party, xplans[0].Term()),
			func() (exchangeOut, error) {
				owner := x.owner
				var asp telemetry.Span
				if traced {
					asp = m.reg.StartChildSpan("search.attempt", spCtx, nil)
					asp.AddAttr(telemetry.AStr("party", x.party),
						telemetry.AInt("attempt", atomic.AddInt64(&attemptN, 1)))
					if tc, ok := owner.(traceCarrier); ok {
						owner = tc.WithTrace(asp.Context())
					}
				}
				var o exchangeOut
				var err error
				o.docs, o.costs, err = core.RTKWithPlans(xplans, owner, f.Params.K)
				if traced {
					markFault(&asp, err)
					if err != nil {
						asp.AddAttr(telemetry.AStr("error", err.Error()))
					}
					asp.End()
				}
				return o, err
			})
		errs[xi], retries[xi] = err, attempts-1
		if err == nil {
			for j, i := range x.tasks {
				docs[i], costs[i] = out.docs[j], out.costs[j]
			}
		}
		if traced {
			sp.AddAttr(telemetry.AInt("attempts", int64(attempts)))
			if err != nil {
				markFault(&sp, err)
				sp.AddAttr(telemetry.AStr("error", err.Error()))
			}
		}
		sp.End()
	})
	run.addStage(StageFanout, fanout.End())

	// Merge in task order: deterministic accumulation, no shared-map
	// contention during the fan-out. Party inclusion is all-or-nothing:
	// either every one of a party's exchanges succeeded and all its
	// queries contribute, or the party is dropped entirely. Breaker
	// outcomes are recorded here, in exchange order, so breaker state
	// evolves deterministically.
	merge := m.stageSpan(StageMerge, run.parent)
	defer func() { run.addStage(StageMerge, merge.End()) }()
	type key struct {
		party int // index into result.Parties
		doc   int
	}
	survivors := 0
	scores := make(map[key]float64)
	addDocs := func(party int, dcs []core.DocCount) {
		for _, dc := range dcs {
			if dc.Count <= 0 {
				continue
			}
			scores[key{party: party, doc: dc.DocID}] += dc.Count
		}
	}
	// backfill serves a lost party from recent cache entries when the
	// staleness policy allows; it counts as a survivor with OutcomeStale.
	backfill := func(ri int) bool {
		rep := &result.Parties[ri]
		if c == nil || f.Params.CacheMaxStale <= 0 {
			return false
		}
		hits, oldest, ok := f.staleBackfill(c, from, rep.Party, uniq)
		if !ok {
			return false
		}
		rep.Outcome = OutcomeStale
		rep.StaleFor = oldest
		rep.Cached = len(uniq)
		m.counter(MetricPartyOutcome, telemetry.L("party", rep.Party), telemetry.L("outcome", OutcomeStale)).Inc()
		m.counter(MetricCacheStaleServed, telemetry.L("party", rep.Party)).Inc()
		if merge.Context().Valid() {
			sp := m.reg.StartChildSpan("search.cache.stale_serve", merge.Context(), nil)
			sp.AddAttr(telemetry.AStr("party", rep.Party),
				telemetry.AInt("terms", int64(len(uniq))),
				telemetry.AInt("stale_for_nanos", int64(oldest)))
			sp.End()
		}
		survivors++
		for _, h := range hits {
			result.Cost.Add(h.cost)
			addDocs(ri, h.docs)
			src.account.Replayed(rep.Party)
			run.addCost(rep.Party, h.cost)
		}
		return true
	}
	for ri := range result.Parties {
		rep := &result.Parties[ri]
		if rep.Outcome == OutcomeSkipped {
			if backfill(ri) {
				continue
			}
			m.counter(MetricPartyOutcome, telemetry.L("party", rep.Party), telemetry.L("outcome", OutcomeSkipped)).Inc()
			continue
		}
		start, count := spans[ri].start, spans[ri].count
		sent := spans[ri].xstart + spans[ri].xcount
		var firstErr error
		for xi := spans[ri].xstart; xi < sent; xi++ {
			rep.Retries += retries[xi]
			if errs[xi] != nil && firstErr == nil {
				firstErr = errs[xi]
			}
		}
		if rep.Retries > 0 {
			m.counter(MetricRetries, telemetry.L("party", rep.Party)).Add(int64(rep.Retries))
		}
		if firstErr != nil && !degraded {
			// Strict mode: pre-PR behavior, first error fails the search.
			return nil, firstErr
		}
		if degraded {
			b := f.breakerFor(rep.Party)
			for xi := spans[ri].xstart; xi < sent; xi++ {
				b.Record(errs[xi] == nil)
			}
		}
		if firstErr != nil {
			rep.Err = firstErr.Error()
			if backfill(ri) {
				continue
			}
			rep.Outcome = OutcomeFailed
			m.counter(MetricPartyOutcome, telemetry.L("party", rep.Party), telemetry.L("outcome", OutcomeFailed)).Inc()
			continue
		}
		m.counter(MetricPartyOutcome, telemetry.L("party", rep.Party), telemetry.L("outcome", OutcomeOK)).Inc()
		survivors++
		for i := start; i < start+count; i++ {
			result.Cost.Add(costs[i])
			addDocs(ri, docs[i])
			run.addCost(rep.Party, costs[i])
			if c != nil && !tasks[i].cached {
				c.Put(tasks[i].full, tasks[i].base,
					cachedTaskSize(docs[i]), cachedTask{docs: docs[i], cost: costs[i]})
			}
		}
	}
	result.Partial = survivors < len(result.Parties)
	if result.Partial {
		m.degraded.Inc()
	}
	if degraded && survivors < f.Params.MinParties {
		return result, fmt.Errorf("%w: %d of %d parties answered, need %d",
			ErrQuorum, survivors, len(result.Parties), f.Params.MinParties)
	}

	hits := make([]SearchHit, 0, len(scores))
	for kk, s := range scores {
		hits = append(hits, SearchHit{Party: result.Parties[kk.party].Party, DocID: kk.doc, Score: s})
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
	result.Hits = hits
	return result, nil
}
