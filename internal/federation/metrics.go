package federation

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"csfltr/internal/dp"
	"csfltr/internal/telemetry"
)

// Metric families exported by the federation layer. Names follow the
// csfltr_<subsystem>_<name>_<unit> convention; the constants exist so
// tooling (expbench's latency breakdown, dashboards, tests) can address
// them without string drift.
const (
	// MetricRelayedMessages / MetricRelayedBytes count every protocol
	// message the coordinating server relays, labeled by party and op
	// ("query" or "train"). TrafficStats is a view over these.
	MetricRelayedMessages = "csfltr_server_relayed_messages_total"
	MetricRelayedBytes    = "csfltr_server_relayed_bytes_total"
	// MetricTransportBytes counts the bytes a protocol message occupies
	// on the active transport encoding, labeled by party, api and codec
	// ("raw" for the fixed-width WireSize accounting, "wire" for the
	// compact binary frames). MetricRelayedBytes keeps its historical
	// fixed-width semantics so traffic numbers stay comparable across
	// runs; this family is where codec savings show up.
	MetricTransportBytes = "csfltr_transport_bytes_total"
	// MetricAPILatency is per-owner-API-call latency at the server,
	// labeled by api (docids, docmeta, tf, rtk).
	MetricAPILatency = "csfltr_server_api_latency_seconds"
	// MetricSearchExchanges counts the reverse top-K exchanges relayed to
	// a party, labeled by party: one per message sent, whether it carries
	// one query or a search's whole batch for that party, and one more
	// per retry. MetricRelayedMessages keeps counting queries and replies
	// one by one; this family is where round trips show up.
	MetricSearchExchanges = "csfltr_search_exchanges_total"
	// MetricSearchStageDuration times the cross-party query pipeline,
	// labeled by stage (tf_query, rtk_query, dp_noise, merge).
	MetricSearchStageDuration = "csfltr_search_stage_duration_seconds"
	// MetricSearchDuration / MetricSearchRequests cover whole federated
	// searches end to end.
	MetricSearchDuration = "csfltr_search_duration_seconds"
	MetricSearchRequests = "csfltr_search_requests_total"
	// MetricTrainingRoundDuration times one round-robin training round.
	MetricTrainingRoundDuration = "csfltr_training_round_duration_seconds"
	// MetricSecAggRounds counts completed secure-aggregation training
	// rounds; MetricSecAggRecoveries counts dropout recoveries (one per
	// dropped party per round that was cancelled via seed reveals).
	MetricSecAggRounds     = "csfltr_secagg_rounds_total"
	MetricSecAggRecoveries = "csfltr_secagg_recoveries_total"
	// MetricSecAggStageDuration times the secure-aggregation pipeline,
	// labeled by stage (mask, aggregate, recover).
	MetricSecAggStageDuration = "csfltr_secagg_stage_duration_seconds"
	// MetricSecAggQuantError observes the worst-case per-weight
	// quantization error bound of each released aggregate.
	MetricSecAggQuantError = "csfltr_secagg_quantization_error"
	// MetricFanoutInFlight / MetricFanoutQueueDepth instrument the bounded
	// worker pool behind the federated search fan-out: tasks currently
	// executing and tasks still queued. Sampled gauges — scrape mid-search
	// to see pool pressure.
	MetricFanoutInFlight   = "csfltr_fanout_in_flight_tasks"
	MetricFanoutQueueDepth = "csfltr_fanout_queue_depth"
	// MetricBreakerState is the per-party circuit breaker position,
	// labeled by party: 0 closed, 1 half-open, 2 open (the numeric
	// contract of resilience.State).
	MetricBreakerState = "csfltr_resilience_breaker_state"
	// MetricRetries counts retry attempts beyond the first try, labeled
	// by party.
	MetricRetries = "csfltr_resilience_retries_total"
	// MetricPartyOutcome counts per-party outcomes of federated
	// searches, labeled by party and outcome (ok, failed, skipped).
	MetricPartyOutcome = "csfltr_search_party_outcome_total"
	// MetricDegradedSearches counts federated searches that completed
	// without the full roster (Partial results).
	MetricDegradedSearches = "csfltr_search_degraded_total"
	// MetricInjectedFaults counts faults injected by the chaos layer,
	// labeled by party and kind (error, timeout, down, partition).
	MetricInjectedFaults = "csfltr_chaos_injected_faults_total"
	// MetricCacheLookups counts answer-cache lookups, labeled by tier
	// (query, task) and result (hit, miss).
	MetricCacheLookups = "csfltr_qcache_lookups_total"
	// MetricCacheCoalesced counts searches that were absorbed into
	// another identical in-flight search instead of fanning out.
	MetricCacheCoalesced = "csfltr_qcache_coalesced_total"
	// MetricCacheStaleServed counts parties backfilled from stale cache
	// entries in degraded searches, labeled by party.
	MetricCacheStaleServed = "csfltr_qcache_stale_served_total"
	// MetricCacheSizeBytes / MetricCacheEntries are callback gauges over
	// the answer cache's residency, current at scrape time.
	MetricCacheSizeBytes = "csfltr_qcache_size_bytes"
	MetricCacheEntries   = "csfltr_qcache_entries"
	// MetricBudgetRemaining is the unspent per-peer privacy budget of a
	// querier's accountant, labeled by party (the querier) and peer (who
	// the budget is against). -1 encodes an unlimited budget.
	MetricBudgetRemaining = "csfltr_dp_budget_remaining_epsilon"
)

// Per-party search outcome label values (bounded).
const (
	OutcomeOK      = "ok"      // every query to the party succeeded
	OutcomeFailed  = "failed"  // the party was queried but failed
	OutcomeSkipped = "skipped" // the party was skipped (breaker open)
	OutcomeStale   = "stale"   // lost, but backfilled from cache entries
)

// Answer-cache lookup label values (bounded).
const (
	cacheTierQuery = "query"
	cacheTierTask  = "task"
	cacheHit       = "hit"
	cacheMiss      = "miss"
)

// Relay op label values: what the server was relaying for.
const (
	opQuery  = "query"
	opTrain  = "train"
	opSecAgg = "secagg"
)

// Owner API label values.
const (
	apiDocIDs  = "docids"
	apiDocMeta = "docmeta"
	apiTF      = "tf"
	apiRTK     = "rtk"
	// Release-side apis: what the coordinator hands back to clients.
	// These appear only in the MetricTransportBytes family.
	apiSearch = "search"
	// Training-side apis: round-robin model hops and secure-aggregation
	// submissions/reveals. These also appear only in MetricTransportBytes.
	apiTrain  = "train"
	apiSecAgg = "secagg"
)

// Secure-aggregation pipeline stage label values.
const (
	StageSecAggMask      = "mask"
	StageSecAggAggregate = "aggregate"
	StageSecAggRecover   = "recover"
)

// Query pipeline stage label values.
const (
	StageTFQuery  = "tf_query"
	StageRTKQuery = "rtk_query"
	StageDPNoise  = "dp_noise"
	StageFanout   = "fanout"
	StageMerge    = "merge"
)

// SearchStages lists the pipeline stages in execution order. fanout spans
// the whole parallel dispatch of one search, so its duration is wall
// clock while the rtk_query stage it encloses accumulates per-query time
// across workers; the ratio of the two is the realized parallelism.
var SearchStages = []string{StageTFQuery, StageRTKQuery, StageDPNoise, StageFanout, StageMerge}

// relayKey identifies one (party, op) relay counter pair.
type relayKey struct{ party, op string }

// transportKey identifies one (party, api, codec) transport byte series.
type transportKey struct{ party, api, codec string }

// shardSeriesKey identifies one per-shard series of a sharded party:
// party, field, bounded shard label, and the series-specific
// discriminator (api for transport bytes, outcome for outcome counters,
// empty for breaker gauges). Every component is drawn from a closed set
// — party names from the roster, fields from the Field enum, shard and
// replica labels from internal/shard's clamped tables.
type shardSeriesKey struct{ party, field, shard, aux string }

// CodecRaw / CodecWire are the MetricTransportBytes codec label values —
// exported so the benchmark can query Server.TransportBytes without
// string drift.
const (
	CodecRaw  = "raw"
	CodecWire = "wire"

	codecRaw  = CodecRaw
	codecWire = CodecWire
)

// relayCounters is the cached handle pair for one relay series.
type relayCounters struct{ msgs, bytes *telemetry.Counter }

// namedHist is one latency histogram and the name of the spans that feed
// it, interned beside it so that starting a span builds no string.
type namedHist struct {
	name string
	hist *telemetry.Histogram
}

// serverMetrics bundles the server's registry with cached hot-path
// metric handles. It has its own lock so relay accounting never contends
// with the roster mutex.
type serverMetrics struct {
	reg *telemetry.Registry

	api      map[string]namedHist // by owner api: "server.api.<api>" spans
	stage    map[string]namedHist // by pipeline stage: "search.stage.<stage>" spans
	roundDur *telemetry.Histogram

	searchDur  *telemetry.Histogram
	searchReqs *telemetry.Counter
	degraded   *telemetry.Counter

	httpInFlight *telemetry.Gauge

	poolInFlight *telemetry.Gauge
	poolQueue    *telemetry.Gauge

	mu        sync.Mutex
	relay     map[relayKey]relayCounters
	breaker   map[string]*telemetry.Gauge
	retries   map[string]*telemetry.Counter
	exchanges map[string]*telemetry.Counter   // party
	outcomes  map[relayKey]*telemetry.Counter // reusing relayKey as (party, outcome)
	faults    map[relayKey]*telemetry.Counter // (party, kind)
	cache     map[relayKey]*telemetry.Counter // (tier, result)
	stale     map[string]*telemetry.Counter   // party
	budget    map[relayKey]struct{}           // (querier, peer) gauges registered
	coalesce  *telemetry.Counter              // lazily created
	transport map[transportKey]*telemetry.Counter

	// Secure-aggregation series, lazily created on the first secure
	// training round so plain federations never export them.
	secaggStage  map[string]*telemetry.Histogram
	secaggRounds *telemetry.Counter
	secaggRecov  *telemetry.Counter
	secaggQuant  *telemetry.Histogram

	// Per-shard series of sharded parties (see attachShardHooks).
	shardTransport map[shardSeriesKey]*telemetry.Counter
	shardBreaker   map[shardSeriesKey]*telemetry.Gauge
	shardOutcome   map[shardSeriesKey]*telemetry.Counter
}

// newServerMetrics creates the handle cache over reg.
func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{
		reg:       reg,
		api:       make(map[string]namedHist, 4),
		stage:     make(map[string]namedHist, 4),
		relay:     make(map[relayKey]relayCounters),
		breaker:   make(map[string]*telemetry.Gauge),
		retries:   make(map[string]*telemetry.Counter),
		exchanges: make(map[string]*telemetry.Counter),
		outcomes:  make(map[relayKey]*telemetry.Counter),
		faults:    make(map[relayKey]*telemetry.Counter),
		cache:     make(map[relayKey]*telemetry.Counter),
		stale:     make(map[string]*telemetry.Counter),
		budget:    make(map[relayKey]struct{}),

		transport:      make(map[transportKey]*telemetry.Counter),
		shardTransport: make(map[shardSeriesKey]*telemetry.Counter),
		shardBreaker:   make(map[shardSeriesKey]*telemetry.Gauge),
		shardOutcome:   make(map[shardSeriesKey]*telemetry.Counter),
	}
	for _, api := range []string{apiDocIDs, apiDocMeta, apiTF, apiRTK} {
		m.api[api] = namedHist{name: "server.api." + api, hist: reg.Histogram(MetricAPILatency,
			"Latency of one owner API call relayed by the server.", nil,
			telemetry.L("api", api))}
	}
	for _, st := range SearchStages {
		m.stage[st] = namedHist{name: "search.stage." + st, hist: reg.Histogram(MetricSearchStageDuration,
			"Time spent per cross-party query pipeline stage.", nil,
			telemetry.L("stage", st))}
	}
	m.roundDur = reg.Histogram(MetricTrainingRoundDuration,
		"Duration of one round-robin distributed training round.", nil)
	m.searchDur = reg.Histogram(MetricSearchDuration,
		"End-to-end federated search latency.", nil)
	m.searchReqs = reg.Counter(MetricSearchRequests, "Federated searches served.")
	m.degraded = reg.Counter(MetricDegradedSearches,
		"Federated searches that completed without the full roster.")
	m.httpInFlight = reg.Gauge("csfltr_http_in_flight_requests", "HTTP requests currently executing.")
	m.poolInFlight = reg.Gauge(MetricFanoutInFlight, "Fan-out pool tasks currently executing.")
	m.poolQueue = reg.Gauge(MetricFanoutQueueDepth, "Fan-out pool tasks waiting for a worker.")
	return m
}

// relayFor returns (creating on first use) the counter pair for one
// (party, op).
func (m *serverMetrics) relayFor(party, op string) relayCounters {
	k := relayKey{party: party, op: op}
	m.mu.Lock()
	defer m.mu.Unlock()
	rc, ok := m.relay[k]
	if !ok {
		labels := []telemetry.Label{telemetry.L("party", party), telemetry.L("op", op)}
		rc = relayCounters{
			msgs:  m.reg.Counter(MetricRelayedMessages, "Messages relayed by the coordinating server.", labels...),
			bytes: m.reg.Counter(MetricRelayedBytes, "Bytes relayed by the coordinating server.", labels...),
		}
		m.relay[k] = rc
	}
	return rc
}

// breakerGauge returns (creating on first use) one party's breaker
// state gauge. The gauge carries resilience.State's numeric contract:
// 0 closed, 1 half-open, 2 open.
func (m *serverMetrics) breakerGauge(party string) *telemetry.Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.breaker[party]
	if !ok {
		g = m.reg.Gauge(MetricBreakerState,
			"Per-party circuit breaker state (0 closed, 1 half-open, 2 open).",
			telemetry.L("party", party))
		m.breaker[party] = g
	}
	return g
}

// retriesFor returns one party's retry counter.
func (m *serverMetrics) retriesFor(party string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.retries[party]
	if !ok {
		c = m.reg.Counter(MetricRetries,
			"Retry attempts beyond the first try, per party.",
			telemetry.L("party", party))
		m.retries[party] = c
	}
	return c
}

// exchangesFor returns one party's reverse top-K exchange counter.
func (m *serverMetrics) exchangesFor(party string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.exchanges[party]
	if !ok {
		c = m.reg.Counter(MetricSearchExchanges,
			"Reverse top-K exchanges relayed to a party, whatever number of queries each carried.",
			telemetry.L("party", party))
		m.exchanges[party] = c
	}
	return c
}

// outcomeFor returns the counter for one (party, outcome) of federated
// searches.
func (m *serverMetrics) outcomeFor(party, outcome string) *telemetry.Counter {
	k := relayKey{party: party, op: outcome}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.outcomes[k]
	if !ok {
		c = m.reg.Counter(MetricPartyOutcome,
			"Per-party outcomes of federated searches.",
			telemetry.L("party", party), telemetry.L("outcome", outcome))
		m.outcomes[k] = c
	}
	return c
}

// faultFor returns the counter for one (party, fault kind) of injected
// chaos faults.
func (m *serverMetrics) faultFor(party, kind string) *telemetry.Counter {
	k := relayKey{party: party, op: kind}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.faults[k]
	if !ok {
		c = m.reg.Counter(MetricInjectedFaults,
			"Faults injected by the chaos layer.",
			telemetry.L("party", party), telemetry.L("kind", kind))
		m.faults[k] = c
	}
	return c
}

// cacheFor returns the lookup counter for one (tier, result) of the
// answer cache.
func (m *serverMetrics) cacheFor(tier, result string) *telemetry.Counter {
	k := relayKey{party: tier, op: result}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cache[k]
	if !ok {
		c = m.reg.Counter(MetricCacheLookups,
			"Answer-cache lookups, by tier and result.",
			telemetry.L("tier", tier), telemetry.L("result", result))
		m.cache[k] = c
	}
	return c
}

// staleFor returns the stale-served counter for one party.
func (m *serverMetrics) staleFor(party string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.stale[party]
	if !ok {
		c = m.reg.Counter(MetricCacheStaleServed,
			"Parties backfilled from stale cache entries in degraded searches.",
			telemetry.L("party", party))
		m.stale[party] = c
	}
	return c
}

// secaggStageSpan starts a span for one secure-aggregation stage
// (mask, aggregate, recover), creating the histogram on first use.
func (m *serverMetrics) secaggStageSpan(stage string) telemetry.Span {
	m.mu.Lock()
	if m.secaggStage == nil {
		m.secaggStage = make(map[string]*telemetry.Histogram, 3)
	}
	h, ok := m.secaggStage[stage]
	if !ok {
		h = m.reg.Histogram(MetricSecAggStageDuration,
			"Time spent per secure-aggregation pipeline stage.", nil,
			telemetry.L("stage", stage))
		m.secaggStage[stage] = h
	}
	m.mu.Unlock()
	return m.reg.StartSpan("secagg."+stage, h)
}

// secaggRoundsCounter returns the completed secure round counter.
func (m *serverMetrics) secaggRoundsCounter() *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.secaggRounds == nil {
		m.secaggRounds = m.reg.Counter(MetricSecAggRounds,
			"Completed secure-aggregation training rounds.")
	}
	return m.secaggRounds
}

// secaggRecoveriesCounter returns the dropout-recovery counter.
func (m *serverMetrics) secaggRecoveriesCounter() *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.secaggRecov == nil {
		m.secaggRecov = m.reg.Counter(MetricSecAggRecoveries,
			"Dropped parties cancelled out of a secure round via seed reveals.")
	}
	return m.secaggRecov
}

// secaggQuantHist returns the quantization-error-bound histogram.
func (m *serverMetrics) secaggQuantHist() *telemetry.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.secaggQuant == nil {
		m.secaggQuant = m.reg.Histogram(MetricSecAggQuantError,
			"Worst-case per-weight quantization error bound of released aggregates.",
			[]float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3})
	}
	return m.secaggQuant
}

// coalescedCounter returns the singleflight-absorption counter.
func (m *serverMetrics) coalescedCounter() *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.coalesce == nil {
		m.coalesce = m.reg.Counter(MetricCacheCoalesced,
			"Searches absorbed into an identical in-flight search.")
	}
	return m.coalesce
}

// budgetGauge registers (once per (querier, peer)) a callback gauge
// reading the querier's remaining privacy budget against peer. The
// callback evaluates at scrape time, so the exported value tracks the
// accountant without per-spend bookkeeping; +Inf (unlimited budget) is
// encoded as -1 to stay representable in JSON snapshots.
func (m *serverMetrics) budgetGauge(querier, peer string, acct *dp.Accountant) {
	k := relayKey{party: querier, op: peer}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.budget[k]; ok {
		return
	}
	m.budget[k] = struct{}{}
	m.reg.GaugeFunc(MetricBudgetRemaining,
		"Unspent per-peer privacy budget of a querier's accountant (-1 = unlimited).",
		func() float64 {
			r := acct.Remaining(peer)
			if math.IsInf(r, 1) {
				return -1
			}
			return r
		},
		telemetry.L("party", querier), telemetry.L("peer", peer))
}

// record accounts one relayed message of n bytes — the single byte
// accounting point of the whole federation (query relays, model hops,
// every transport). TrafficStats and TrainingStats are read-side views
// over what this method wrote.
func (m *serverMetrics) record(party, op string, n int64) {
	rc := m.relayFor(party, op)
	rc.msgs.Inc()
	rc.bytes.Add(n)
}

// transportFor returns (creating on first use) the byte counter for one
// (party, api, codec) series.
func (m *serverMetrics) transportFor(party, api, codec string) *telemetry.Counter {
	k := transportKey{party: party, api: api, codec: codec}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.transport[k]
	if !ok {
		c = m.reg.Counter(MetricTransportBytes,
			"Bytes occupied by protocol messages on the active transport encoding.",
			telemetry.L("party", party), telemetry.L("api", api), telemetry.L("codec", codec))
		m.transport[k] = c
	}
	return c
}

// recordTransport is the single accounting point for transport-encoded
// bytes: every relayed message funnels through here exactly once, with
// the size the active codec actually puts on the wire.
func (m *serverMetrics) recordTransport(party, api, codec string, n int64) {
	m.transportFor(party, api, codec).Add(n)
}

// shardTransportFor returns the per-shard byte counter of one sharded
// party's field. These series carry an extra bounded "shard" label and
// account shard-level exchanges inside the party (always fixed-width,
// codec "raw"); the party-level series above remain the transport
// ground truth and transportBytes never sums the shard series.
func (m *serverMetrics) shardTransportFor(party, field, shard, api string) *telemetry.Counter {
	k := shardSeriesKey{party: party, field: field, shard: shard, aux: api}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.shardTransport[k]
	if !ok {
		c = m.reg.Counter(MetricTransportBytes,
			"Bytes occupied by protocol messages on the active transport encoding.",
			telemetry.L("party", party), telemetry.L("field", field),
			telemetry.L("shard", shard), telemetry.L("api", api),
			telemetry.L("codec", CodecRaw))
		m.shardTransport[k] = c
	}
	return c
}

// shardBreakerGauge returns the breaker-state gauge of one replica of a
// sharded party, labeled with the combined bounded "s<i>/r<j>" label.
func (m *serverMetrics) shardBreakerGauge(party, field, shard string) *telemetry.Gauge {
	k := shardSeriesKey{party: party, field: field, shard: shard}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.shardBreaker[k]
	if !ok {
		g = m.reg.Gauge(MetricBreakerState,
			"Per-replica circuit breaker state of a sharded party (0 closed, 1 half-open, 2 open).",
			telemetry.L("party", party), telemetry.L("field", field),
			telemetry.L("shard", shard))
		m.shardBreaker[k] = g
	}
	return g
}

// shardOutcomeFor returns the per-shard call outcome counter of one
// sharded party's field.
func (m *serverMetrics) shardOutcomeFor(party, field, shard, outcome string) *telemetry.Counter {
	k := shardSeriesKey{party: party, field: field, shard: shard, aux: outcome}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.shardOutcome[k]
	if !ok {
		c = m.reg.Counter(MetricPartyOutcome,
			"Per-shard outcomes of owner calls inside a sharded party.",
			telemetry.L("party", party), telemetry.L("field", field),
			telemetry.L("shard", shard), telemetry.L("outcome", outcome))
		m.shardOutcome[k] = c
	}
	return c
}

// transportBytes sums one codec's transport series, optionally filtered
// by api ("" means every api).
func (m *serverMetrics) transportBytes(codec, api string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for k, c := range m.transport {
		if k.codec != codec || (api != "" && k.api != api) {
			continue
		}
		total += c.Value()
	}
	return total
}

// traffic sums every relay series into the legacy TrafficStats view.
func (m *serverMetrics) traffic() TrafficStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t TrafficStats
	for _, rc := range m.relay {
		t.Messages += rc.msgs.Value()
		t.Bytes += rc.bytes.Value()
	}
	return t
}

// trafficFor sums the relay series of one op.
func (m *serverMetrics) trafficFor(op string) (msgs, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, rc := range m.relay {
		if k.op != op {
			continue
		}
		msgs += rc.msgs.Value()
		bytes += rc.bytes.Value()
	}
	return msgs, bytes
}

// resetTraffic zeroes every relay series.
func (m *serverMetrics) resetTraffic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rc := range m.relay {
		rc.msgs.Reset()
		rc.bytes.Reset()
	}
	for _, c := range m.transport {
		c.Reset()
	}
}

// apiSpan starts a latency span for one owner API call.
func (m *serverMetrics) apiSpan(api string) telemetry.Span {
	h := m.api[api]
	return m.reg.StartSpan(h.name, h.hist)
}

// stageSpan starts a span for one query pipeline stage.
func (m *serverMetrics) stageSpan(stage string) telemetry.Span {
	h := m.stage[stage]
	return m.reg.StartSpan(h.name, h.hist)
}

// stageTrace starts a pipeline-stage span parented under ctx; with an
// invalid ctx (tracing off) it degrades to stageSpan behaviour.
func (m *serverMetrics) stageTrace(stage string, ctx telemetry.SpanContext) *telemetry.TraceSpan {
	h := m.stage[stage]
	return m.reg.StartChildSpan(h.name, ctx, h.hist)
}

// timedMechanism decorates a dp.Mechanism so the time spent drawing
// noise is attributed to the dp_noise pipeline stage. The histogram is
// attached when the party joins a server; until then the mechanism is a
// zero-overhead passthrough.
type timedMechanism struct {
	inner dp.Mechanism
	hist  atomic.Pointer[telemetry.Histogram]
}

// attach points the decorator at a stage histogram (nil detaches).
func (t *timedMechanism) attach(h *telemetry.Histogram) { t.hist.Store(h) }

// Sample implements dp.Mechanism.
func (t *timedMechanism) Sample() float64 {
	h := t.hist.Load()
	if h == nil {
		return t.inner.Sample()
	}
	start := time.Now()
	v := t.inner.Sample()
	h.Observe(time.Since(start).Seconds())
	return v
}

// Perturb implements dp.Mechanism.
func (t *timedMechanism) Perturb(x float64) float64 {
	h := t.hist.Load()
	if h == nil {
		return t.inner.Perturb(x)
	}
	start := time.Now()
	v := t.inner.Perturb(x)
	h.Observe(time.Since(start).Seconds())
	return v
}

// Epsilon implements dp.Mechanism.
func (t *timedMechanism) Epsilon() float64 { return t.inner.Epsilon() }
