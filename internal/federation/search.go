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
// Its tasks are positions [first, first+n) of the search's exchange
// order (searchState.xtasks), which also index its plans, its first
// attempt's lists and their ranges of the slab.
type searchExchange struct {
	party    string
	owner    core.OwnerAPI
	first, n int
}

// taskSpan is the task range and the exchange range of one party of a
// search (empty for a skipped party).
type taskSpan struct{ start, count, xstart, xcount int }

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
// is byte-for-byte the pre-cache search. Its working memory — plans,
// tasks, exchanges, recovered lists and the merge — is one pooled
// searchState; what it returns is the caller's.
//
//csfltr:releases
func (f *Federation) searchUncached(src *Party, from string, uniq []uint64, k int,
	run *searchRun) (*SearchResult, error) {
	m := f.Server.metrics()
	degraded := f.Params.MinParties > 0
	policy := f.ResiliencePolicy()
	c := f.cache() // nil when disabled
	st := searchStates.Get().(*searchState)
	defer st.release()

	// Build each term's obfuscated plan exactly once. Plan construction
	// draws from the querier's private randomness, so it stays on this
	// goroutine, in deterministic order.
	plans := st.planFor(src.querier, uniq)

	// Enumerate the (party, term) fan-out in roster order and spend the
	// whole privacy budget up front: if any spend is refused the search
	// aborts before a single query is dispatched, exactly where the
	// sequential path would have stopped. Under the quorum policy a
	// party with an open breaker is skipped here, BEFORE its budget is
	// spent — the paper's accountant never charges for queries that are
	// never sent. A task whose answer is already cached is likewise
	// never spent for: the replay is free (post-processing) and the
	// accountant records it separately.
	result := &SearchResult{Parties: make([]PartyReport, 0, len(f.Parties))}
	// spans[ri] is the task range and the exchange range of
	// result.Parties[ri].
	tasks, exchanges, xtasks, spans := st.tasks[:0], st.exchanges[:0], st.xtasks[:0], st.spans[:0]
	defer func() { st.tasks, st.exchanges, st.xtasks, st.spans = tasks, exchanges, xtasks, spans }()
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
				if n := len(exchanges); n == xstart || exchanges[n-1].n == core.MaxRTKBatch {
					exchanges = append(exchanges, searchExchange{party: party.Name, owner: owner, first: len(xtasks)})
				}
				exchanges[len(exchanges)-1].n++
				xtasks = append(xtasks, len(tasks))
			}
			tasks = append(tasks, t)
		}
		spans = append(spans, taskSpan{start: start, count: len(plans),
			xstart: xstart, xcount: len(exchanges) - xstart})
		result.Parties = append(result.Parties, rep)
	}

	// Fan out on the worker pool, one unit of work per exchange. Each
	// exchange writes only its own positions of the state — its lists
	// into its own range of the slab — so workers never contend on
	// shared state; the fanout span measures the wall-clock of the whole
	// dispatch while the per-exchange rtk_query spans accumulate worker
	// time. The resilience wrapper bounds each attempt with the policy
	// deadline and retries transient failures with deterministic
	// backoff. Cached tasks are prefilled and belong to no exchange.
	docs, costs := st.sizeFanout(tasks, xtasks, len(exchanges), f.Params.K)
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
		xplans := st.xplans[x.first : x.first+x.n]
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
		// running when the retry fires. Only the first attempt recovers
		// into the state; a retry, which may run beside an abandoned
		// first attempt, recovers into lists of its own.
		var attemptN int64
		out, attempts, err := resilience.Call(policy, f.callSeed(x.party, xplans[0].Term()),
			func() (exchangeOut, error) {
				n := atomic.AddInt64(&attemptN, 1)
				owner := x.owner
				var asp telemetry.Span
				if traced {
					asp = m.reg.StartChildSpan("search.attempt", spCtx, nil)
					asp.AddAttr(telemetry.AStr("party", x.party), telemetry.AInt("attempt", n))
					if tc, ok := owner.(traceCarrier); ok {
						owner = tc.WithTrace(asp.Context())
					}
				}
				o := st.outFor(x, n == 1)
				err := core.RTKWithPlans(xplans, owner, f.Params.K, o.docs, o.costs)
				if traced {
					markFault(&asp, err)
					if err != nil {
						asp.AddAttr(telemetry.AStr("error", err.Error()))
					}
					asp.End()
				}
				return o, err
			})
		st.errs[xi], st.retries[xi] = err, attempts-1
		if err != nil || attempts > 1 {
			st.held.Store(true) // an attempt may have been abandoned
		}
		if err == nil {
			for j, i := range xtasks[x.first : x.first+x.n] {
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
	survivors := 0
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
			st.feed(ri, h.docs)
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
			rep.Retries += st.retries[xi]
			if st.errs[xi] != nil && firstErr == nil {
				firstErr = st.errs[xi]
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
				b.Record(st.errs[xi] == nil)
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
			st.feed(ri, docs[i])
			run.addCost(rep.Party, costs[i])
			if c != nil && !tasks[i].cached {
				// An exactly sized copy: the entry outlives this search's
				// pooled slab.
				kept := append([]core.DocCount(nil), docs[i]...)
				c.Put(tasks[i].full, tasks[i].base,
					cachedTaskSize(kept), cachedTask{docs: kept, cost: costs[i]})
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
	result.Hits = st.rank(result.Parties, k)
	return result, nil
}

// searchState is the working memory of one uncached search, pooled so
// a search allocates little beyond the result it returns: the plans;
// the tasks, exchanges and per-party spans of the fan-out; per task the
// recovered list and cost; per exchange position the plan and the first
// attempt's list and cost, the lists in a slab of K entries a position;
// per exchange the error and retries; and the merge's entries and
// bounded top k. A state an abandoned attempt may still use is never
// pooled again.
type searchState struct {
	plans     []core.Plan
	planPtrs  []*core.Plan
	tasks     []searchTask
	exchanges []searchExchange
	xtasks    []int // task index per exchange position
	spans     []taskSpan
	docs      [][]core.DocCount
	costs     []core.Cost
	xplans    []*core.Plan
	xdocs     [][]core.DocCount
	xcosts    []core.Cost
	slab      []core.DocCount
	k         int // slab entries a position
	errs      []error
	retries   []int
	entries   []mergeEntry
	top       []SearchHit
	// held is set when an exchange failed or took more than one attempt,
	// the only ways an attempt is abandoned at its deadline; one that is
	// still reads the plans and writes its lists after the search
	// returns, so the state is never pooled again.
	held atomic.Bool
}

// maxPooledSlab caps the slab a pooled searchState keeps, so one
// outsized search does not pin its memory for the life of the process.
const maxPooledSlab = 1 << 16

var searchStates = sync.Pool{New: func() any { return new(searchState) }}

// release returns the state to the pool, unless an abandoned attempt
// may still hold it, dropping every reference the search left in it.
func (st *searchState) release() {
	if st.held.Load() || cap(st.slab) > maxPooledSlab {
		return
	}
	clear(st.planPtrs)
	clear(st.tasks)
	clear(st.exchanges)
	clear(st.docs)
	clear(st.xplans)
	clear(st.xdocs)
	clear(st.errs)
	clear(st.top)
	st.entries = st.entries[:0]
	searchStates.Put(st)
}

// planFor builds the plan of every term in the state's plans, in term
// order.
func (st *searchState) planFor(q *core.Querier, terms []uint64) []*core.Plan {
	if cap(st.plans) < len(terms) {
		st.plans = make([]core.Plan, len(terms))
	}
	st.plans, st.planPtrs = st.plans[:len(terms)], st.planPtrs[:0]
	for i, term := range terms {
		q.PlanInto(&st.plans[i], term)
		st.planPtrs = append(st.planPtrs, &st.plans[i])
	}
	return st.planPtrs
}

// sizeFanout sizes the fan-out's per-task, per-position and per-exchange
// memory for the enumerated tasks, k slab entries a position, and
// returns the per-task lists and costs.
func (st *searchState) sizeFanout(tasks []searchTask, xtasks []int, exchanges, k int) ([][]core.DocCount, []core.Cost) {
	st.docs, st.costs = resize(st.docs, len(tasks)), resize(st.costs, len(tasks))
	st.xplans, st.xdocs = resize(st.xplans, len(xtasks)), resize(st.xdocs, len(xtasks))
	st.xcosts = resize(st.xcosts, len(xtasks))
	for p, i := range xtasks {
		st.xplans[p] = tasks[i].plan
	}
	st.slab, st.k = resize(st.slab, len(xtasks)*k), k
	st.errs, st.retries = resize(st.errs, exchanges), resize(st.retries, exchanges)
	return st.docs, st.costs
}

// outFor returns where an attempt at exchange x recovers its lists:
// the exchange's own positions of the state and their ranges of the
// slab for the first attempt, new memory for a retry.
func (st *searchState) outFor(x searchExchange, first bool) exchangeOut {
	if !first {
		return exchangeOut{docs: make([][]core.DocCount, x.n), costs: make([]core.Cost, x.n)}
	}
	o := exchangeOut{docs: st.xdocs[x.first : x.first+x.n], costs: st.xcosts[x.first : x.first+x.n]}
	for j := range o.docs {
		p := (x.first + j) * st.k
		o.docs[j] = st.slab[p:p:(p + st.k)]
	}
	clear(o.costs)
	return o
}

// mergeEntry is one positive count fed to the merge: the party (an
// index into SearchResult.Parties), the document, and its place in the
// feed.
type mergeEntry struct {
	party, seq int32
	doc        int
	count      float64
}

// feed adds one recovered list of party to the merge. A search feeds
// each party's lists in plan order, a stale-backfilled party's in term
// order; counts at or below zero add nothing.
func (st *searchState) feed(party int, dcs []core.DocCount) {
	for _, dc := range dcs {
		if dc.Count <= 0 {
			continue
		}
		st.entries = append(st.entries, mergeEntry{party: int32(party), seq: int32(len(st.entries)),
			doc: dc.DocID, count: dc.Count})
	}
}

// rank sums each (party, document)'s fed counts and returns the k best
// sums in rank order, a slice the caller keeps. Ordering the entries by
// (party, document, feed position) lines each document's counts up in
// the order they were fed, so every sum is the same float sum, in the
// same order, as one accumulated as the lists arrive; only the k best
// sums are ever ordered.
func (st *searchState) rank(parties []PartyReport, k int) []SearchHit {
	e := st.entries
	slices.SortFunc(e, func(a, b mergeEntry) int {
		if c := cmp.Compare(a.party, b.party); c != 0 {
			return c
		}
		if c := cmp.Compare(a.doc, b.doc); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	top := st.top[:0]
	for i := 0; i < len(e); {
		j, score := i, 0.0
		for ; j < len(e) && e[j].party == e[i].party && e[j].doc == e[i].doc; j++ {
			score += e[j].count
		}
		top = keepHit(top, SearchHit{Party: parties[e[i].party].Party, DocID: e[i].doc, Score: score}, k)
		i = j
	}
	st.top = top
	return append(make([]SearchHit, 0, len(top)), top...)
}

// rankHits is the ranking order: score descending (NaN last, as
// cmp.Compare places it), then party name, then document id.
func rankHits(a, b SearchHit) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Party, b.Party); c != 0 {
		return c
	}
	return cmp.Compare(a.DocID, b.DocID)
}

// keepHit offers h to top, the at most k best hits so far in rank
// order, and returns top with h inserted if it belongs: a hit that does
// not beat the k-th costs one comparison.
func keepHit(top []SearchHit, h SearchHit, k int) []SearchHit {
	m := len(top)
	if m >= k && (k <= 0 || rankHits(h, top[m-1]) >= 0) {
		return top
	}
	at, _ := slices.BinarySearchFunc(top, h, rankHits)
	if m < k {
		top = append(top, h)
	}
	copy(top[at+1:], top[at:])
	top[at] = h
	return top
}

// resize returns s at length n, reusing its memory when it is enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
