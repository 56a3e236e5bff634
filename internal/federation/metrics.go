package federation

import (
	"sync/atomic"
	"time"

	"csfltr/internal/dp"
	"csfltr/internal/telemetry"
)

// Metric families exported by the federation layer. Names follow the
// csfltr_<subsystem>_<name>_<unit> convention; the constants exist so
// tooling (expbench's latency breakdown, dashboards, tests) can address
// them without string drift. What each family holds, and under which
// labels, is its row in the catalogue below.
const (
	MetricRelayedMessages       = "csfltr_server_relayed_messages_total"
	MetricRelayedBytes          = "csfltr_server_relayed_bytes_total"
	MetricTransportBytes        = "csfltr_transport_bytes_total"
	MetricAPILatency            = "csfltr_server_api_latency_seconds"
	MetricSearchExchanges       = "csfltr_search_exchanges_total"
	MetricSearchStageDuration   = "csfltr_search_stage_duration_seconds"
	MetricSearchDuration        = "csfltr_search_duration_seconds"
	MetricSearchRequests        = "csfltr_search_requests_total"
	MetricTrainingRoundDuration = "csfltr_training_round_duration_seconds"
	MetricSecAggRounds          = "csfltr_secagg_rounds_total"
	MetricSecAggRecoveries      = "csfltr_secagg_recoveries_total"
	MetricSecAggStageDuration   = "csfltr_secagg_stage_duration_seconds"
	MetricSecAggQuantError      = "csfltr_secagg_quantization_error"
	MetricFanoutInFlight        = "csfltr_fanout_in_flight_tasks"
	MetricFanoutQueueDepth      = "csfltr_fanout_queue_depth"
	MetricBreakerState          = "csfltr_resilience_breaker_state"
	MetricRetries               = "csfltr_resilience_retries_total"
	MetricPartyOutcome          = "csfltr_search_party_outcome_total"
	MetricDegradedSearches      = "csfltr_search_degraded_total"
	MetricInjectedFaults        = "csfltr_chaos_injected_faults_total"
	MetricCacheLookups          = "csfltr_qcache_lookups_total"
	MetricCacheCoalesced        = "csfltr_qcache_coalesced_total"
	MetricCacheStaleServed      = "csfltr_qcache_stale_served_total"
	MetricCacheSizeBytes        = "csfltr_qcache_size_bytes"
	MetricCacheEntries          = "csfltr_qcache_entries"
	MetricBudgetRemaining       = "csfltr_dp_budget_remaining_epsilon"
	MetricAdmissionShed         = "csfltr_http_admission_shed_total"
	MetricAdmissionQueueDepth   = "csfltr_http_admission_queue_depth"
	MetricAdmissionInFlight     = "csfltr_http_admission_in_flight"
	MetricHTTPRequests          = "csfltr_http_requests_total"
	MetricHTTPErrors            = "csfltr_http_errors_total"
	MetricHTTPDuration          = "csfltr_http_request_duration_seconds"
	MetricHTTPInFlight          = "csfltr_http_in_flight_requests"
)

// metricKind is the type of a metric family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metricFamily is one row of the catalogue.
type metricFamily struct {
	kind    metricKind
	help    string
	buckets []float64 // histograms only; nil is telemetry.LatencyBuckets
}

// catalogue declares every metric family the federation layer exports:
// its kind, its HELP text and, for a histogram, its buckets. Each row's
// comment names its labels. A series is resolved through the registry
// where it is used (serverMetrics.counter, gauge, histogram, gaugeFunc),
// and those take the help from here, so one family has one help text
// whichever of its series registers first.
var catalogue = map[string]metricFamily{
	// party, op (query, train, secagg): every protocol message the server
	// relays, at its fixed-width size. Traffic is a view over these two.
	MetricRelayedMessages: {kindCounter, "Messages relayed by the coordinating server.", nil},
	MetricRelayedBytes:    {kindCounter, "Bytes relayed by the coordinating server.", nil},
	// party, api, codec ("raw", the fixed-width size; "wire", the binary
	// frame): what a message occupies on the active encoding, where codec
	// savings show up. A sharded party's field adds field and shard
	// series for its shard hops, always raw; TransportBytes never sums
	// those.
	MetricTransportBytes: {kindCounter, "Bytes occupied by protocol messages on the active transport encoding.", nil},
	// api (docids, docmeta, tf, rtk).
	MetricAPILatency: {kindHistogram, "Latency of one owner API call relayed by the server.", nil},
	// party: one per reverse top-K message sent, whether it carries one
	// query or a search's whole batch for the party, and one per retry.
	MetricSearchExchanges: {kindCounter, "Reverse top-K exchanges relayed to a party, whatever number of queries each carried.", nil},
	// stage (tf_query, rtk_query, dp_noise, fanout, merge).
	MetricSearchStageDuration: {kindHistogram, "Time spent per cross-party query pipeline stage.", nil},
	MetricSearchDuration:      {kindHistogram, "End-to-end federated search latency.", nil},
	MetricSearchRequests:      {kindCounter, "Federated searches served.", nil},
	// Round-robin and secure-aggregation rounds alike.
	MetricTrainingRoundDuration: {kindHistogram, "Duration of one round-robin distributed training round.", nil},
	MetricSecAggRounds:          {kindCounter, "Completed secure-aggregation training rounds.", nil},
	// One per dropped party per round, cancelled via seed reveals.
	MetricSecAggRecoveries: {kindCounter, "Dropped parties cancelled out of a secure round via seed reveals.", nil},
	// stage (mask, aggregate, recover).
	MetricSecAggStageDuration: {kindHistogram, "Time spent per secure-aggregation pipeline stage.", nil},
	MetricSecAggQuantError: {kindHistogram, "Worst-case per-weight quantization error bound of released aggregates.",
		[]float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3}},
	// The search fan-out's worker pool; scrape mid-search to see it.
	MetricFanoutInFlight:   {kindGauge, "Fan-out pool tasks currently executing.", nil},
	MetricFanoutQueueDepth: {kindGauge, "Fan-out pool tasks waiting for a worker.", nil},
	// party; a sharded party's replicas add field and shard ("s<i>/r<j>").
	// The values are resilience.State's.
	MetricBreakerState: {kindGauge, "Circuit breaker state per party, and per replica of a sharded party's field (0 closed, 1 half-open, 2 open).", nil},
	// party.
	MetricRetries: {kindCounter, "Retry attempts beyond the first try, per party.", nil},
	// party, outcome (ok, failed, skipped, stale); a sharded party's
	// shards add field and shard series counting their owner calls (ok,
	// failed).
	MetricPartyOutcome:     {kindCounter, "Outcomes of federated searches per party, and of owner calls per shard of a sharded party's field.", nil},
	MetricDegradedSearches: {kindCounter, "Federated searches that completed without the full roster.", nil},
	// party, kind (error, timeout, down, partition).
	MetricInjectedFaults: {kindCounter, "Faults injected by the chaos layer.", nil},
	// tier (query, task), result (hit, miss).
	MetricCacheLookups:   {kindCounter, "Answer-cache lookups, by tier and result.", nil},
	MetricCacheCoalesced: {kindCounter, "Searches absorbed into an identical in-flight search.", nil},
	// party.
	MetricCacheStaleServed: {kindCounter, "Parties backfilled from stale cache entries in degraded searches.", nil},
	// Callback gauges, current at scrape time.
	MetricCacheSizeBytes: {kindGauge, "Resident bytes in the federated answer cache.", nil},
	MetricCacheEntries:   {kindGauge, "Live entries in the federated answer cache.", nil},
	// party (the querier), peer: a callback gauge per pair of roster
	// members, from when both are registered.
	MetricBudgetRemaining: {kindGauge, "Unspent per-peer privacy budget of a querier's accountant (-1 = unlimited).", nil},
	// reason: queue_full (the queue was at capacity on arrival), deadline
	// (no slot freed within QueueTimeout), canceled (the client gave up
	// while queued).
	MetricAdmissionShed:       {kindCounter, "Gateway search requests refused by admission control.", nil},
	MetricAdmissionQueueDepth: {kindGauge, "Gateway search requests waiting for an execution slot.", nil},
	MetricAdmissionInFlight:   {kindGauge, "Admitted gateway searches currently executing.", nil},
	// route, code.
	MetricHTTPRequests: {kindCounter, "HTTP gateway requests served.", nil},
	// route: every request answered 400 or above.
	MetricHTTPErrors: {kindCounter, "HTTP gateway requests that failed.", nil},
	// route.
	MetricHTTPDuration: {kindHistogram, "HTTP gateway request latency.", nil},
	MetricHTTPInFlight: {kindGauge, "HTTP requests currently executing.", nil},
}

// family returns name's catalogue row. A name the catalogue lacks, or
// asked for as another kind, is a programming error.
func family(name string, kind metricKind) metricFamily {
	f, ok := catalogue[name]
	if !ok || f.kind != kind {
		panic("federation: " + name + " is not a catalogued " + string(kind))
	}
	return f
}

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

// CodecRaw / CodecWire are the MetricTransportBytes codec label values —
// exported so the benchmark can query Server.TransportBytes without
// string drift.
const (
	CodecRaw  = "raw"
	CodecWire = "wire"

	codecRaw  = CodecRaw
	codecWire = CodecWire
)

// namedHist is one latency histogram and the name of the spans that feed
// it, interned beside it so that starting a span builds no string.
type namedHist struct {
	name string
	hist *telemetry.Histogram
}

// serverMetrics is the server's registry and the series every server
// exports from the start, resolved when it is built. Everything else is
// resolved through the registry where it is used, by counter, gauge,
// histogram and gaugeFunc; a relay resolves its own series when it is
// built (relayMetrics).
type serverMetrics struct {
	reg *telemetry.Registry

	api   map[string]namedHist // by owner api: "server.api.<api>" spans
	stage map[string]namedHist // by pipeline stage: "search.stage.<stage>" spans

	roundDur, searchDur                   *telemetry.Histogram
	searchReqs, degraded                  *telemetry.Counter
	httpInFlight, poolInFlight, poolQueue *telemetry.Gauge
}

// newServerMetrics resolves the fixed series over reg.
func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{
		reg:   reg,
		api:   make(map[string]namedHist, 4),
		stage: make(map[string]namedHist, len(SearchStages)),
	}
	for _, api := range []string{apiDocIDs, apiDocMeta, apiTF, apiRTK} {
		m.api[api] = namedHist{name: "server.api." + api,
			hist: m.histogram(MetricAPILatency, telemetry.L("api", api))}
	}
	for _, st := range SearchStages {
		m.stage[st] = namedHist{name: "search.stage." + st,
			hist: m.histogram(MetricSearchStageDuration, telemetry.L("stage", st))}
	}
	m.roundDur = m.histogram(MetricTrainingRoundDuration)
	m.searchDur = m.histogram(MetricSearchDuration)
	m.searchReqs = m.counter(MetricSearchRequests)
	m.degraded = m.counter(MetricDegradedSearches)
	m.httpInFlight = m.gauge(MetricHTTPInFlight)
	m.poolInFlight = m.gauge(MetricFanoutInFlight)
	m.poolQueue = m.gauge(MetricFanoutQueueDepth)
	return m
}

// counter returns the series of a catalogued counter family.
func (m *serverMetrics) counter(name string, labels ...telemetry.Label) *telemetry.Counter {
	return m.reg.Counter(name, family(name, kindCounter).help, labels...)
}

// gauge returns the series of a catalogued gauge family.
func (m *serverMetrics) gauge(name string, labels ...telemetry.Label) *telemetry.Gauge {
	return m.reg.Gauge(name, family(name, kindGauge).help, labels...)
}

// histogram returns the series of a catalogued histogram family.
func (m *serverMetrics) histogram(name string, labels ...telemetry.Label) *telemetry.Histogram {
	f := family(name, kindHistogram)
	return m.reg.Histogram(name, f.help, f.buckets, labels...)
}

// gaugeFunc registers a callback series of a catalogued gauge family;
// the first registration of a series keeps its callback.
func (m *serverMetrics) gaugeFunc(name string, fn func() float64, labels ...telemetry.Label) {
	m.reg.GaugeFunc(name, family(name, kindGauge).help, fn, labels...)
}

// relayMetrics are the series a relay accounts every message in,
// resolved when the relay is built: the party's query traffic, its
// reverse top-K exchanges and its transport bytes per owner api and
// codec. Accounting a message is then an atomic add.
type relayMetrics struct {
	msgs, bytes, exchanges   *telemetry.Counter
	docIDs, docMeta, tf, rtk codecBytes
}

// codecBytes is one api's transport byte series under each codec.
type codecBytes struct{ raw, wire *telemetry.Counter }

// relayMetrics resolves one party's relay series.
func (m *serverMetrics) relayMetrics(party string) *relayMetrics {
	bytesOf := func(api string) codecBytes {
		return codecBytes{
			raw: m.counter(MetricTransportBytes,
				telemetry.L("party", party), telemetry.L("api", api), telemetry.L("codec", codecRaw)),
			wire: m.counter(MetricTransportBytes,
				telemetry.L("party", party), telemetry.L("api", api), telemetry.L("codec", codecWire)),
		}
	}
	return &relayMetrics{
		msgs:      m.counter(MetricRelayedMessages, telemetry.L("party", party), telemetry.L("op", opQuery)),
		bytes:     m.counter(MetricRelayedBytes, telemetry.L("party", party), telemetry.L("op", opQuery)),
		exchanges: m.counter(MetricSearchExchanges, telemetry.L("party", party)),
		docIDs:    bytesOf(apiDocIDs),
		docMeta:   bytesOf(apiDocMeta),
		tf:        bytesOf(apiTF),
		rtk:       bytesOf(apiRTK),
	}
}

// account charges one relayed message: raw, its fixed-width size, to
// the party's query traffic, and sent, its size under codec, to api's
// transport bytes.
func (h *relayMetrics) account(api codecBytes, codec string, raw, sent int64) {
	h.msgs.Inc()
	h.bytes.Add(raw)
	if codec == codecWire {
		api.wire.Add(sent)
	} else {
		api.raw.Add(sent)
	}
}

// labelValue returns the value of key among labels ("" when absent).
func labelValue(labels []telemetry.Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// The views below sum or reset the party-level series of the parties on
// a server's roster. A registry shared by several servers (expbench
// records every pipeline into one) holds other servers' parties too, and
// a sharded party's shard hops are accounted inside the party: neither
// is counted.

// rosterSum adds up the party-level counters of family name whose party
// is on roster and that keep accepts.
func (m *serverMetrics) rosterSum(name string, roster map[string]*member, keep func(labels []telemetry.Label) bool) int64 {
	var total int64
	m.reg.Walk(name, func(labels []telemetry.Label, s any) {
		if onRoster(labels, roster) && keep(labels) {
			total += s.(*telemetry.Counter).Value()
		}
	})
	return total
}

// onRoster reports whether a series is a party-level series of a party
// on roster.
func onRoster(labels []telemetry.Label, roster map[string]*member) bool {
	_, ok := roster[labelValue(labels, "party")]
	return ok && labelValue(labels, "shard") == ""
}

// transportBytes sums one codec's transport series, optionally filtered
// by api ("" means every api).
func (m *serverMetrics) transportBytes(codec, api string, roster map[string]*member) int64 {
	return m.rosterSum(MetricTransportBytes, roster, func(labels []telemetry.Label) bool {
		return labelValue(labels, "codec") == codec && (api == "" || labelValue(labels, "api") == api)
	})
}

// trafficFor sums the relay series of one op ("" sums every op).
func (m *serverMetrics) trafficFor(op string, roster map[string]*member) (msgs, bytes int64) {
	keep := func(labels []telemetry.Label) bool { return op == "" || labelValue(labels, "op") == op }
	return m.rosterSum(MetricRelayedMessages, roster, keep), m.rosterSum(MetricRelayedBytes, roster, keep)
}

// resetTraffic zeroes the relay and transport series.
func (m *serverMetrics) resetTraffic(roster map[string]*member) {
	reset := func(labels []telemetry.Label, s any) {
		if onRoster(labels, roster) {
			s.(*telemetry.Counter).Reset()
		}
	}
	m.reg.Walk(MetricRelayedMessages, reset)
	m.reg.Walk(MetricRelayedBytes, reset)
	m.reg.Walk(MetricTransportBytes, reset)
}

// stageSpan starts a span for one query pipeline stage under parent
// (untraced when parent is invalid).
func (m *serverMetrics) stageSpan(stage string, parent telemetry.SpanContext) telemetry.Span {
	h := m.stage[stage]
	return m.reg.StartChildSpan(h.name, parent, h.hist)
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

// Epsilon implements dp.Mechanism.
func (t *timedMechanism) Epsilon() float64 { return t.inner.Epsilon() }
