package federation

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csfltr/internal/core"
	"csfltr/internal/qcache"
	"csfltr/internal/resilience"
	"csfltr/internal/telemetry"
)

// runPool executes fn(0..n-1) on at most `workers` goroutines, returning
// when every task has finished. Tasks are claimed from an atomic counter
// in index order, so workers stay busy without a scheduler goroutine or
// per-task channel traffic. The pool reports its pressure into the
// metrics' fanout gauges (in-flight tasks and queue depth); m may be nil
// in tests. This is the single worker-pool implementation behind every
// parallel federation operation (federated search fan-out, batch reverse
// top-K).
func runPool(workers, n int, m *serverMetrics, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if m != nil {
		m.poolQueue.Add(float64(n))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if m != nil {
					m.poolQueue.Dec()
					m.poolInFlight.Inc()
				}
				fn(i)
				if m != nil {
					m.poolInFlight.Dec()
				}
			}
		}()
	}
	wg.Wait()
}

// rtkOut is one request's result, produced inside a resilience.Call so
// a timed-out attempt can be abandoned without racing the caller.
type rtkOut struct {
	docs []core.DocCount
	cost core.Cost
}

// TopKRequest names one reverse top-K query of a batch.
type TopKRequest struct {
	To    string // document-owner party
	Field Field
	Term  uint64
	K     int
}

// TopKResult pairs a request with its outcome.
type TopKResult struct {
	Request TopKRequest
	Docs    []core.DocCount
	Cost    core.Cost
	Err     error
}

// BatchReverseTopK runs many reverse top-K queries from one party
// concurrently with at most parallelism in-flight queries. Results are
// returned in request order; individual failures are reported per result
// rather than aborting the batch. Every query spends privacy budget with
// the querier's accountant exactly as the sequential path does; budget
// refusals surface as per-result errors.
//
// Each worker uses its own deterministically-seeded querier (obfuscation
// randomness), so a batch is reproducible for a fixed federation and
// request list regardless of scheduling.
//
// Queries run under the federation's resilience policy (per-attempt
// deadline, bounded retries with deterministic backoff). When
// Params.MinParties > 0, a request to a party whose circuit breaker is
// open fails immediately with resilience.ErrBreakerOpen — before any
// privacy budget is spent — and attempted requests feed the breaker in
// request order after the pool drains, so breaker evolution does not
// depend on scheduling.
//
// With Params.CacheBytes > 0, RTK requests to local parties consult the
// federated answer cache first: a hit replays the previously released
// noisy answer without spending budget (recorded as a replay with the
// accountant). Note the reproducibility caveat: which duplicate of a
// repeated request populates the cache depends on worker scheduling, so
// enable caching only where replays are acceptable.
func (f *Federation) BatchReverseTopK(from string, reqs []TopKRequest, parallelism int, useRTK bool) ([]TopKResult, error) {
	if parallelism <= 0 {
		parallelism = 1
	}
	src, err := f.Party(from)
	if err != nil {
		return nil, err
	}
	m := f.Server.metrics()
	degraded := f.Params.MinParties > 0
	policy := f.ResiliencePolicy()
	results := make([]TopKResult, len(reqs))
	attempted := make([]bool, len(reqs))
	cached := make([]bool, len(reqs))
	retried := make([]int, len(reqs))
	for i, r := range reqs {
		results[i].Request = r
	}
	root := m.reg.StartRootSpan("batch", nil)
	if root.Context().Valid() {
		root.AddAttr(
			telemetry.AStr("querier", from),
			telemetry.AInt("requests", int64(len(reqs))))
	}
	start := time.Now()
	// Pre-resolve one querier per request (seeded by index) so results
	// do not depend on worker scheduling, and settle breaker admission
	// up front in request order.
	queriers := make([]*core.Querier, len(reqs))
	for i := range reqs {
		if degraded && reqs[i].To != from && !f.breakerFor(reqs[i].To).Allow() {
			results[i].Err = resilience.ErrBreakerOpen
			continue
		}
		q, err := core.NewQuerier(f.Params, f.HashSeed, rand.New(rand.NewSource(int64(i)*7919+1)))
		if err != nil {
			root.End()
			return nil, err
		}
		queriers[i] = q
	}
	// With the answer cache enabled, each request first consults the
	// batch task tier; a hit replays the released noisy answer at zero
	// budget spend. Keys bind the answering owner's ingest generation,
	// which is only observable for local parties — requests to remote
	// (HTTP-registered) parties always take the live path.
	c := f.cache()
	runPool(parallelism, len(reqs), m, func(i int) {
		r := &results[i]
		if r.Err != nil { // breaker refused above
			return
		}
		if r.Request.To == from {
			r.Err = ErrSelfQuery
			return
		}
		sp := m.reg.StartChildSpan("batch.rtk_query", root.Context(), nil)
		traced := sp.Context().Valid()
		if traced {
			sp.AddAttr(
				telemetry.AStr("party", r.Request.To),
				telemetry.AStr("term", f.TermHash(r.Request.Term)))
		}
		defer func() {
			if traced {
				if r.Err != nil {
					markFault(sp, r.Err)
					sp.AddAttr(telemetry.AStr("error", r.Err.Error()))
				}
				sp.AddAttr(telemetry.ABool("cached", cached[i]))
			}
			sp.End()
		}()
		var full, base qcache.Key
		cacheable := false
		if c != nil && useRTK {
			if dst, err := f.Party(r.Request.To); err == nil {
				gens := dst.generations(r.Request.Field)
				full, base = f.batchKeys(from, r.Request, gens)
				cacheable = true
				if v, ok := c.Get(full, base); ok {
					m.cacheFor(cacheTierTask, cacheHit).Inc()
					hit := v.(cachedTask)
					r.Docs, r.Cost = hit.docs, hit.cost
					src.account.Replayed(r.Request.To)
					cached[i] = true
					return
				}
				m.cacheFor(cacheTierTask, cacheMiss).Inc()
			}
		}
		owner, err := f.Server.OwnerFor(r.Request.To, r.Request.Field)
		if err != nil {
			r.Err = err
			return
		}
		if traced {
			if tc, ok := owner.(traceCarrier); ok {
				owner = tc.WithTrace(sp.Context())
			}
		}
		if err := src.account.Spend(r.Request.To, f.Params.Epsilon); err != nil {
			r.Err = err
			return
		}
		attempted[i] = true
		out, attempts, err := resilience.Call(policy, f.callSeed(r.Request.To, r.Request.Term),
			func() (rtkOut, error) {
				var o rtkOut
				var err error
				if useRTK {
					o.docs, o.cost, err = core.RTKReverseTopK(queriers[i], owner, r.Request.Term, r.Request.K)
				} else {
					o.docs, o.cost, err = core.NaiveReverseTopK(queriers[i], owner, r.Request.Term, r.Request.K)
				}
				return o, err
			})
		r.Docs, r.Cost, r.Err = out.docs, out.cost, err
		retried[i] = attempts - 1
		if traced {
			sp.AddAttr(telemetry.AInt("attempts", int64(attempts)))
		}
		if attempts > 1 {
			m.retriesFor(r.Request.To).Add(int64(attempts - 1))
		}
		if cacheable && r.Err == nil {
			c.Put(full, base, cachedTaskSize(r.Docs), cachedTask{docs: r.Docs, cost: r.Cost})
		}
	})
	if degraded {
		for i := range results {
			if attempted[i] {
				f.breakerFor(results[i].Request.To).Record(results[i].Err == nil)
			}
		}
	}
	d := root.End()
	f.commitBatchAudit(root.Context().TraceID, from, results, attempted, cached, retried, start, d)
	codec := codecRaw
	if f.Server.WireCodecEnabled() {
		codec = codecWire
	}
	for i := range results {
		if results[i].Err == nil && len(results[i].Docs) > 0 {
			m.recordTransport(from, apiBatch, codec, sizeTopKRelease(codec, results[i].Docs))
		}
	}
	return results, nil
}

// commitBatchAudit turns one finished batch into its audit record
// (no-op when the flight recorder is off). Per-party rows aggregate the
// batch's requests in request order: Queries counts exactly the
// accountant's Spend calls (attempted requests), Cached the zero-spend
// replays, so epsilon reconciliation against dp.Accountant holds for
// batches the same way it does for searches.
func (f *Federation) commitBatchAudit(traceID, from string, results []TopKResult,
	attempted, cached []bool, retried []int, start time.Time, d time.Duration) {
	if !f.Server.TracingEnabled() {
		return
	}
	eps := f.Params.Epsilon
	rows := make(map[string]*AuditParty)
	var order []string
	for i := range results {
		r := &results[i]
		p := rows[r.Request.To]
		if p == nil {
			p = &AuditParty{
				Party:     r.Request.To,
				Transport: f.Server.transportFor(r.Request.To),
				Outcome:   OutcomeOK,
			}
			rows[r.Request.To] = p
			order = append(order, r.Request.To)
		}
		if attempted[i] {
			p.Queries++
			p.Epsilon += eps
		}
		if cached[i] {
			p.Cached++
		}
		p.Retries += retried[i]
		p.Bytes += r.Cost.BytesSent + r.Cost.BytesReceived
		p.Messages += int64(r.Cost.Messages)
		if r.Err != nil && p.Err == "" {
			p.Outcome = OutcomeFailed
			p.Err = r.Err.Error()
		}
	}
	sort.Strings(order)
	rec := AuditRecord{
		TraceID:       traceID,
		Op:            "batch",
		Querier:       from,
		Terms:         len(results),
		StartUnixNano: start.UnixNano(),
		DurationNanos: int64(d),
		Outcome:       AuditOK,
	}
	for _, name := range order {
		p := rows[name]
		if p.Outcome != OutcomeOK {
			rec.Outcome = AuditPartial
			rec.Partial = true
		}
		rec.EpsilonSpent += p.Epsilon
		rec.Bytes += p.Bytes
		rec.Messages += p.Messages
		rec.Parties = append(rec.Parties, *p)
	}
	f.Server.auditAppend(rec)
}

// BatchErrors collects the non-nil errors of a batch, labelled by
// request.
func BatchErrors(results []TopKResult) []error {
	var out []error
	for _, r := range results {
		if r.Err != nil {
			out = append(out, fmt.Errorf("federation: %s/%v term %d: %w",
				r.Request.To, r.Request.Field, r.Request.Term, r.Err))
		}
	}
	return out
}
