// Package federation is the cross-silo substrate of CS-F-LTR: parties,
// the coordinating (honest-but-curious) server, message routing with
// byte-level traffic accounting, and the key-agreement ceremony that
// hides the shared hash seed from the server.
//
// Topology (Section III-A of the paper): N parties each hold private
// documents and queries; a central server relays every protocol message
// but must not learn raw data — parties derive the keyed-hash seed
// pairwise via Diffie-Hellman (package keyex) so the server only ever
// sees obfuscated column indexes and perturbed counters.
//
// A party is reached one of two ways: direct in-process routing through
// Server, or over the HTTP wire-frame host (see http.go) exposing the
// same OwnerAPI.
package federation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csfltr/internal/chaos"
	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/hashutil"
	"csfltr/internal/keyex"
	"csfltr/internal/qcache"
	"csfltr/internal/resilience"
	"csfltr/internal/shard"
	"csfltr/internal/telemetry"
	"csfltr/internal/textkit"
	"csfltr/internal/wire"
)

// Errors returned by this package.
var (
	ErrUnknownParty = errors.New("federation: unknown party")
	ErrUnknownField = errors.New("federation: unknown document field")
	ErrSelfQuery    = errors.New("federation: party cannot run the cross-party protocol against itself")
)

// Field selects which document field a cross-party query addresses. The
// 16-dimensional feature vector needs term counts from both the body and
// the title, so each party maintains one sketch set per field.
type Field int

const (
	// FieldBody addresses document bodies.
	FieldBody Field = iota
	// FieldTitle addresses document titles.
	FieldTitle
	numFields
)

// String returns the field name.
func (f Field) String() string {
	switch f {
	case FieldBody:
		return "body"
	case FieldTitle:
		return "title"
	default:
		return fmt.Sprintf("federation.Field(%d)", int(f))
	}
}

// TrafficStats aggregates the bytes and messages relayed by the server,
// the communication-cost quantity of Fig. 4 / Section VI-D. It is a
// read-side view over the server's telemetry registry (the relayed
// messages/bytes counter families), not a separate ledger.
type TrafficStats struct {
	Messages int64
	Bytes    int64
}

// endpoint resolves a party's owner API per field. Local parties resolve
// in-process; remote (party-hosted) endpoints resolve to an HTTP-backed
// client. transport names the wire for telemetry ("inproc", "http").
type endpoint interface {
	ownerAPI(f Field) (core.OwnerAPI, error)
	transport() string
}

// Transport label values (bounded).
const (
	transportInproc = "inproc"
	transportHTTP   = "http"
)

// traceCarrier is implemented by owner views that can forward a trace
// context downstream: the routed owner (span parenting) and the HTTP
// client (on-the-wire propagation). WithTrace returns a shallow copy
// bound to ctx; the receiver is never mutated.
type traceCarrier interface {
	WithTrace(ctx telemetry.SpanContext) core.OwnerAPI
}

// Server is the coordinating server: a message router with traffic
// accounting. It is honest-but-curious — it relays faithfully and records
// everything it can see, but never holds hash keys or raw documents. Safe
// for concurrent use.
//
// Every relayed message is accounted in the server's telemetry registry
// (per-party message/byte counters, per-API-call latency histograms);
// Traffic and TrainingStats are views over that registry.
type Server struct {
	mu      sync.Mutex
	parties map[string]*member
	m       *serverMetrics

	// chaosInj simulates the links between the server and each party:
	// per-party latency and fault profiles, all deterministic from the
	// injector's seed (see SetChaos / SetPartyLink). Nil (the default)
	// relays immediately and faultlessly.
	chaosInj atomic.Pointer[chaos.Injector]

	// cacheStats, when set, reads the federation answer cache's counters
	// for the HTTP gateway's /v1/cache route (see cache.go). Nil until a
	// cache-enabled federation runs its first search.
	cacheStats atomic.Pointer[func() qcache.Stats]

	// audit is the per-query flight recorder (see trace.go). Nil until
	// EnableTracing.
	audit atomic.Pointer[telemetry.Ring[AuditRecord]]

	// wireCodec selects the byte accounting the transport layer reports
	// under MetricTransportBytes: false (default) counts the fixed-width
	// WireSize of each message, true counts the compact binary frames
	// from internal/wire. Flipping it never changes protocol results —
	// only how many bytes each relayed message is charged.
	wireCodec atomic.Bool

	// searcher serves the gateway's POST /v1/search route (installed by
	// the Federation constructors via setSearcher). Nil until a
	// federation attaches.
	searcher atomic.Pointer[gatewaySearcher]

	// admission bounds the gateway's concurrent search work (see
	// SetAdmission in admission.go). Nil means unbounded.
	admission atomic.Pointer[admission]
}

// NewServer creates an empty server with a fresh telemetry registry.
func NewServer() *Server {
	return NewServerWithRegistry(telemetry.NewRegistry())
}

// NewServerWithRegistry creates an empty server recording into reg —
// for embedding the federation into a process-wide registry (e.g. the
// experiments harness or a binary's -debug-addr endpoint).
func NewServerWithRegistry(reg *telemetry.Registry) *Server {
	return &Server{parties: make(map[string]*member), m: newServerMetrics(reg)}
}

// member is one roster entry: the party's endpoint and the relay to each
// of its fields, built when the party registers so that OwnerFor — once
// per CrossTF, ~110 times per augmented training query — hands out a
// relay rather than making one.
type member struct {
	endpoint
	relays [numFields]*routedOwner
}

// Metrics returns the server's telemetry registry — the source the
// HTTP gateway's /v1/metrics route and the debug endpoint serve.
func (s *Server) Metrics() *telemetry.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.reg
}

// SetRegistry redirects the server's telemetry into reg. Call it before
// serving traffic: recorded series do not migrate. The roster's relays
// and in-process parties are re-wired to the new registry; a relay
// resolved before the call keeps recording into the old one.
func (s *Server) SetRegistry(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = newServerMetrics(reg)
	for name, mb := range s.parties {
		h := s.m.relayMetrics(name)
		for f, r := range mb.relays {
			cp := *r
			cp.m, cp.h = s.m, h
			mb.relays[f] = &cp
		}
		if p, ok := mb.endpoint.(*Party); ok {
			p.attachDPHist(s.m.stage[StageDPNoise].hist)
			p.attachShardHooks(s.m)
		}
	}
	s.exportBudgets()
}

// exportBudgets exports, for every in-process party on the roster, its
// unspent privacy budget against each other member as a callback gauge,
// read at scrape time; +Inf (an unlimited budget) is encoded as -1 to
// stay representable in JSON snapshots. Exporting a pair again keeps
// its first gauge. Callers hold s.mu.
func (s *Server) exportBudgets() {
	for _, mb := range s.parties {
		p, ok := mb.endpoint.(*Party)
		if !ok {
			continue
		}
		for peer := range s.parties {
			if peer == p.Name {
				continue
			}
			s.m.gaugeFunc(MetricBudgetRemaining, func() float64 {
				r := p.account.Remaining(peer)
				if math.IsInf(r, 1) {
					return -1
				}
				return r
			}, telemetry.L("party", p.Name), telemetry.L("peer", peer))
		}
	}
}

// metrics returns the server's metrics under the roster lock.
func (s *Server) metrics() *serverMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m
}

// Register adds an in-process party to the federation roster and wires
// the party's DP mechanisms into the server's dp_noise stage histogram.
func (s *Server) Register(p *Party) error {
	if err := s.register(p.Name, p); err != nil {
		return err
	}
	s.mu.Lock()
	p.attachDPHist(s.m.stage[StageDPNoise].hist)
	p.attachShardHooks(s.m)
	s.mu.Unlock()
	return nil
}

// register adds any endpoint under a unique name, with its relays.
// Registering new parties at runtime is free for existing members —
// exactly the reusability property the paper attributes to the sketch
// construction.
func (s *Server) register(name string, e endpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.parties[name]; dup {
		return fmt.Errorf("federation: party %q already registered", name)
	}
	mb := &member{endpoint: e}
	h := s.m.relayMetrics(name)
	for f := range mb.relays {
		api, err := e.ownerAPI(Field(f))
		if err != nil {
			return err
		}
		mb.relays[f] = &routedOwner{m: s.m, h: h, srv: s, party: name, api: api}
	}
	s.parties[name] = mb
	s.exportBudgets()
	return nil
}

// Unregister removes a party and its relays from the roster (e.g. a silo
// leaving the federation). Unknown names are a no-op.
func (s *Server) Unregister(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.parties, name)
}

// PartyNames returns the registered party names, sorted.
func (s *Server) PartyNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.parties))
	for n := range s.parties {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Traffic returns a snapshot of the relayed traffic counters, summed
// over every party on the roster and every op.
func (s *Server) Traffic() TrafficStats {
	msgs, bytes := s.traffic("")
	return TrafficStats{Messages: msgs, Bytes: bytes}
}

// traffic sums the relay counters of one op ("" sums every op) over the
// roster.
func (s *Server) traffic(op string) (msgs, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.trafficFor(op, s.parties)
}

// ResetTraffic zeroes the roster's traffic counters (between experiment
// runs).
func (s *Server) ResetTraffic() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.resetTraffic(s.parties)
}

// SetChaos installs a fault injector simulating the server↔party links:
// per-party latency, jitter, error/timeout rates, crashes and
// partitions, every decision deterministic from the injector's seed.
// Injected faults are counted in the server's telemetry
// (csfltr_chaos_injected_faults_total by party and kind). Passing nil
// removes injection entirely. Safe to call concurrently; results, cost
// accounting and traffic counters are unaffected by pure-latency
// profiles.
func (s *Server) SetChaos(in *chaos.Injector) {
	if in != nil {
		in.SetOnFault(func(party, kind string) {
			s.countFault(party, kind)
		})
	}
	s.chaosInj.Store(in)
}

// countFault counts one fault the chaos layer injected.
func (s *Server) countFault(party, kind string) {
	s.metrics().counter(MetricInjectedFaults, telemetry.L("party", party), telemetry.L("kind", kind)).Inc()
}

// SetWireCodec switches the transport byte accounting between the
// fixed-width raw sizes (false, the default) and the compact binary
// wire frames (true). Concurrency-safe; takes effect on the next
// relayed message.
func (s *Server) SetWireCodec(on bool) { s.wireCodec.Store(on) }

// codecLabel is the MetricTransportBytes codec label the server is
// currently accounting under — the one reading of the SetWireCodec
// switch.
func (s *Server) codecLabel() string {
	if s.wireCodec.Load() {
		return codecWire
	}
	return codecRaw
}

// TransportBytes sums the roster's MetricTransportBytes series recorded
// under codec ("raw" or "wire"), optionally filtered by api ("" sums
// every api) — the view the experiments harness reads to compare
// encodings.
func (s *Server) TransportBytes(codec, api string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.transportBytes(codec, api, s.parties)
}

// ensureChaos returns the installed injector, creating a seed-0 one on
// first use so the link-configuration helpers work without an explicit
// SetChaos.
func (s *Server) ensureChaos() *chaos.Injector {
	if in := s.chaosInj.Load(); in != nil {
		return in
	}
	in := chaos.New(0)
	in.SetOnFault(func(party, kind string) {
		s.countFault(party, kind)
	})
	if s.chaosInj.CompareAndSwap(nil, in) {
		return in
	}
	return s.chaosInj.Load()
}

// SetPartyLink installs a simulated network round-trip time for one
// party's link, applied to every owner call relayed to that party (one
// sleep per message, since each OwnerAPI call is one request/response
// exchange). Cross-silo federations are WAN-separated with
// heterogeneous links, so query latency is round-trip dominated; the
// delay makes in-process benchmarks and experiments reproduce that
// regime — in particular it is what the concurrent Search fan-out
// overlaps. Zero removes the delay. The party's other fault
// knobs are preserved.
func (s *Server) SetPartyLink(party string, rtt time.Duration) {
	in := s.ensureChaos()
	p := in.PartyProfile(party)
	p.Latency = rtt
	in.SetProfile(party, p)
}

// setCacheStats installs the answer-cache stats reader the /v1/cache
// route serves (done once, when the federation's cache is created).
func (s *Server) setCacheStats(fn func() qcache.Stats) {
	s.cacheStats.Store(&fn)
}

// CacheStats returns the answer cache's counters and whether a cache is
// attached at all.
func (s *Server) CacheStats() (qcache.Stats, bool) {
	fn := s.cacheStats.Load()
	if fn == nil {
		return qcache.Stats{}, false
	}
	return (*fn)(), true
}

// intercept applies the installed chaos profile to one relayed owner
// call: simulated link latency, then the injected fault, if any.
func (s *Server) intercept(party, op string, content uint64) error {
	in := s.chaosInj.Load()
	if in == nil {
		return nil
	}
	return in.Intercept(party, op, content)
}

// OwnerFor returns an OwnerAPI view of the named party's field, routed
// through the server with traffic accounting. The returned value is what
// a querier party hands to core.NaiveReverseTopK / core.RTKReverseTopK.
// It is the party's registered relay, shared by every caller: resolving
// one allocates nothing.
func (s *Server) OwnerFor(name string, field Field) (core.OwnerAPI, error) {
	if field < 0 || field >= numFields {
		return nil, fmt.Errorf("%w: %d", ErrUnknownField, int(field))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mb, ok := s.parties[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownParty, name)
	}
	return mb.relays[field], nil
}

// routedOwner proxies OwnerAPI calls through the server: it is the relay,
// the one place a message to a party is accounted (traffic, transport
// bytes, per-call latency), put through the party's simulated link
// (Server.intercept) and — when bound to a trace by WithTrace — recorded
// as a span. Both transports (HTTP and in-process) resolve owners through
// Server.OwnerFor, so nothing reaches a party around it. A relay is
// immutable: the server builds one per (party, field) at registration,
// and WithTrace binds a copy.
type routedOwner struct {
	m     *serverMetrics
	h     *relayMetrics // the party's, shared by its fields' relays
	srv   *Server
	party string
	api   core.OwnerAPI
	// ctx, when set, parents every call's span; nil is the untraced
	// relay, whose spans allocate nothing. A pointer, and no field for
	// what only a traced call needs (the transport label), because
	// WithTrace copies the relay per traced exchange and 64 bytes is its
	// size class.
	ctx *telemetry.SpanContext
}

// sizeTFQueryAs / sizeTFRespAs / sizeRTKRespAs charge a message with the
// byte size the active codec puts on the wire: the historical
// fixed-width accounting for "raw", the framed compact encoding for
// "wire". The roster and metadata calls are codec-independent and keep
// their fixed charges under either label.
func sizeTFQueryAs(codec string, q *core.TFQuery) int64 {
	if codec == codecWire {
		return wire.SizeTFQuery(q)
	}
	return q.WireSize()
}

func sizeTFRespAs(codec string, resp *core.TFResponse) int64 {
	if codec == codecWire {
		return wire.SizeTFResponse(resp)
	}
	return resp.WireSize()
}

func sizeRTKRespAs(codec string, resp *core.RTKResponse) int64 {
	if codec == codecWire {
		return wire.SizeRTKResponse(resp)
	}
	return resp.WireSize()
}

// WithTrace implements traceCarrier: the returned copy parents each API
// call's span under ctx, tags it with party/transport/fault attributes,
// and forwards the per-call span context over trace-carrying transports.
func (r *routedOwner) WithTrace(ctx telemetry.SpanContext) core.OwnerAPI {
	if !ctx.Valid() {
		return r
	}
	cp, parent := *r, ctx // parent, not the parameter, is what escapes: the return above stays allocation-free
	cp.ctx = &parent
	return &cp
}

// begin starts one relayed call: its span — parented under the relay's
// trace context and tagged with the party and its transport when there
// is one — and the owner to forward to, bound to the call's span context
// when the transport can carry one (the HTTP X-Trace-* headers).
func (r *routedOwner) begin(api string) (telemetry.Span, core.OwnerAPI) {
	h := r.m.api[api]
	var parent telemetry.SpanContext
	if r.ctx != nil {
		parent = *r.ctx
	}
	sp := r.m.reg.StartChildSpan(h.name, parent, h.hist)
	if !sp.Context().Valid() {
		return sp, r.api
	}
	sp.AddAttr(telemetry.AStr("party", r.party), telemetry.AStr("transport", r.srv.transportFor(r.party)))
	if tc, ok := r.api.(traceCarrier); ok {
		return sp, tc.WithTrace(sp.Context())
	}
	return sp, r.api
}

// markFault tags the span with the injected-fault kind (or nothing for
// ordinary errors, which the caller's span records itself).
func markFault(sp *telemetry.Span, err error) {
	if kind := chaos.FaultKind(err); kind != "" {
		sp.AddAttr(telemetry.AStr("fault", kind))
	}
}

func (r *routedOwner) DocIDs() []int {
	sp, api := r.begin(apiDocIDs)
	if err := r.srv.intercept(r.party, apiDocIDs, 0); err != nil {
		markFault(&sp, err)
		sp.End()
		return nil
	}
	ids := api.DocIDs()
	sp.End()
	r.h.account(r.h.docIDs, r.srv.codecLabel(), int64(8*len(ids)), int64(8*len(ids)))
	return ids
}

func (r *routedOwner) DocMeta(docID int) (int, int, error) {
	sp, api := r.begin(apiDocMeta)
	if err := r.srv.intercept(r.party, apiDocMeta, uint64(docID)); err != nil {
		markFault(&sp, err)
		sp.End()
		return 0, 0, err
	}
	length, unique, err := api.DocMeta(docID)
	sp.End()
	r.h.account(r.h.docMeta, r.srv.codecLabel(), 16, 16)
	return length, unique, err
}

func (r *routedOwner) AnswerTF(docID int, q *core.TFQuery) (*core.TFResponse, error) {
	sp, api := r.begin(apiTF)
	defer sp.End()
	codec := r.srv.codecLabel()
	r.h.account(r.h.tf, codec, q.WireSize(), sizeTFQueryAs(codec, q))
	if err := r.srv.intercept(r.party, apiTF, chaosContent(uint64(docID)+1, q.Cols)); err != nil {
		markFault(&sp, err)
		return nil, err
	}
	resp, err := api.AnswerTF(docID, q)
	if err != nil {
		return nil, err
	}
	r.h.account(r.h.tf, codec, resp.WireSize(), sizeTFRespAs(codec, resp))
	if sp.Context().Valid() {
		sp.AddAttr(telemetry.AInt("bytes", q.WireSize()+resp.WireSize()))
	}
	return resp, nil
}

func (r *routedOwner) AnswerRTK(q *core.TFQuery) (*core.RTKResponse, error) {
	sp, api := r.begin(apiRTK)
	defer sp.End()
	codec := r.srv.codecLabel()
	if err := r.rtkSent(codec, q); err != nil {
		markFault(&sp, err)
		return nil, err
	}
	resp, err := api.AnswerRTK(q)
	if err != nil {
		return nil, err
	}
	r.rtkReceived(codec, resp)
	if sp.Context().Valid() {
		sp.AddAttr(telemetry.AInt("bytes", q.WireSize()+resp.WireSize()))
	}
	return resp, nil
}

// AnswerRTKBatch relays the queries as one exchange. A single query is
// relayed by AnswerRTK, which differs only in not passing a slice on.
func (r *routedOwner) AnswerRTKBatch(qs []*core.TFQuery) ([]*core.RTKResponse, error) {
	sp, api := r.begin(apiRTK)
	defer sp.End()
	codec := r.srv.codecLabel()
	if err := r.rtkSent(codec, qs...); err != nil {
		markFault(&sp, err)
		return nil, err
	}
	resps, err := api.AnswerRTKBatch(qs)
	if err != nil {
		return nil, err
	}
	for _, resp := range resps {
		r.rtkReceived(codec, resp)
	}
	if sp.Context().Valid() {
		var bytes int64
		for _, q := range qs {
			bytes += q.WireSize()
		}
		for _, resp := range resps {
			bytes += resp.WireSize()
		}
		sp.AddAttr(telemetry.AInt("queries", int64(len(qs))), telemetry.AInt("bytes", bytes))
	}
	return resps, nil
}

// rtkSent accounts the request half of one reverse top-K exchange and
// puts it through the party's link. Bytes and relayed messages are
// those of the queries had each travelled alone, so traffic figures do
// not depend on how a search groups its terms; the exchange counter,
// the link's round trip and its fault decision are per exchange.
func (r *routedOwner) rtkSent(codec string, qs ...*core.TFQuery) error {
	content := chaosContent(0, nil)
	for _, q := range qs {
		r.h.account(r.h.rtk, codec, q.WireSize(), sizeTFQueryAs(codec, q))
		content = foldCols(content, q.Cols)
	}
	r.h.exchanges.Inc()
	return r.srv.intercept(r.party, apiRTK, content)
}

// rtkReceived accounts one reply of a reverse top-K exchange.
func (r *routedOwner) rtkReceived(codec string, resp *core.RTKResponse) {
	r.h.account(r.h.rtk, codec, resp.WireSize(), sizeRTKRespAs(codec, resp))
}

// chaosContent folds a query's column vector (and a discriminator) into
// the call-content identity chaos keys fault decisions on: the same
// logical query draws the same fate no matter when or on which worker
// it is relayed, which is what keeps fault replays bit-identical under
// a concurrent fan-out.
func chaosContent(disc uint64, cols []uint32) uint64 {
	return foldCols(disc^0xcbf29ce484222325, cols)
}

// foldCols continues a call-content hash over one more column vector:
// an exchange of several queries is identified by all of them, in order.
func foldCols(h uint64, cols []uint32) uint64 {
	for _, c := range cols {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// Party is one silo: a name, the owner-side sketch state for each
// document field, a querier endpoint and a per-peer privacy accountant.
// Each field's state is a shard.Group of Params.Shards × Params.Replicas
// owners; at 1 × 1 (the default) it is a single owner.
type Party struct {
	Name string

	params  core.Params
	querier *core.Querier
	groups  [numFields]*shard.Group
	mechs   [numFields]*timedMechanism
	account *dp.Accountant
}

// attachDPHist points the party's DP mechanism timers at a stage
// histogram (done when the party joins a server).
func (p *Party) attachDPHist(h *telemetry.Histogram) {
	for _, m := range p.mechs {
		if m != nil {
			m.attach(h)
		}
	}
}

// attachShardHooks wires the party's groups into the server's telemetry:
// replica attempt spans into the flight recorder, per-shard outcome
// counters, replica breaker gauges and per-shard transport bytes. All
// labels come from the bounded shard label tables plus the party name
// and field — never raw identifiers. A 1 × 1 group records none of them.
func (p *Party) attachShardHooks(m *serverMetrics) {
	for f, g := range p.groups {
		name, field := p.Name, Field(f).String()
		g.SetHooks(shard.Hooks{
			Registry: m.reg,
			OnOutcome: func(sh string, ok bool) {
				out := OutcomeOK
				if !ok {
					out = OutcomeFailed
				}
				m.counter(MetricPartyOutcome, telemetry.L("party", name), telemetry.L("field", field),
					telemetry.L("shard", sh), telemetry.L("outcome", out)).Inc()
			},
			BreakerChange: func(lbl string, st resilience.State) {
				m.gauge(MetricBreakerState, telemetry.L("party", name), telemetry.L("field", field),
					telemetry.L("shard", lbl)).Set(float64(st))
			},
			OnTransport: func(api, sh string, bytes int64) {
				m.counter(MetricTransportBytes, telemetry.L("party", name), telemetry.L("field", field),
					telemetry.L("shard", sh), telemetry.L("api", api), telemetry.L("codec", codecRaw)).Add(bytes)
			},
		})
	}
}

// PartyConfig configures party construction.
type PartyConfig struct {
	Params core.Params
	// Seed is the federation hash seed shared by all parties (derive it
	// with the Federation constructor or keyex + hashutil.DeriveSeed).
	Seed uint64
	// RNGSeed drives this party's private randomness (obfuscation, DP).
	RNGSeed int64
	// Budget is the optional per-peer DP budget for the accountant
	// (0 = track only).
	Budget float64
}

// NewParty builds a party endpoint.
func NewParty(name string, cfg PartyConfig) (*Party, error) {
	if name == "" {
		return nil, errors.New("federation: party name must not be empty")
	}
	querier, err := core.NewQuerier(cfg.Params, cfg.Seed, rand.New(rand.NewSource(cfg.RNGSeed+1)))
	if err != nil {
		return nil, err
	}
	p := &Party{
		Name:    name,
		params:  cfg.Params,
		querier: querier,
		account: dp.NewAccountant(cfg.Budget),
	}
	for f := Field(0); f < numFields; f++ {
		mech, err := dp.ForEpsilon(cfg.Params.Epsilon, rand.New(rand.NewSource(cfg.RNGSeed+2+int64(f))))
		if err != nil {
			return nil, err
		}
		// Wrap the mechanism so noise-drawing time is attributable to
		// the dp_noise stage once the party joins a server. The group
		// decides where it draws (see package shard): one draw per
		// released answer either way.
		timed := &timedMechanism{inner: mech}
		p.mechs[f] = timed
		p.groups[f], err = shard.New(shard.Config{
			Params: cfg.Params,
			Seed:   cfg.Seed,
			Mech:   timed,
		})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// transport implements endpoint.
func (p *Party) transport() string { return transportInproc }

// ownerAPI implements endpoint for in-process parties.
func (p *Party) ownerAPI(f Field) (core.OwnerAPI, error) {
	if f < 0 || f >= numFields {
		return nil, fmt.Errorf("%w: %d", ErrUnknownField, int(f))
	}
	return p.groups[f], nil
}

// Owner exposes a 1 × 1 party's owner for a field (e.g. for direct local
// inspection or space accounting). Nil above 1 × 1 — use Group then.
func (p *Party) Owner(f Field) *core.Owner { return p.groups[f].Owner() }

// Group exposes the owner group for a field; never nil. Its Generations
// vector is what cache keys bind, so invalidation stays shard-local.
func (p *Party) Group(f Field) *shard.Group { return p.groups[f] }

// RemoveDocument deletes one document from both fields. On a sharded
// party only the owning shard's generation moves, so cached answers
// keyed by the other shards' generations stay valid.
func (p *Party) RemoveDocument(docID int) error {
	if err := p.groups[FieldBody].RemoveDocument(docID); err != nil {
		return fmt.Errorf("federation: remove body of doc %d: %w", docID, err)
	}
	if err := p.groups[FieldTitle].RemoveDocument(docID); err != nil {
		return fmt.Errorf("federation: remove title of doc %d: %w", docID, err)
	}
	return nil
}

// Querier returns the party's querier endpoint.
func (p *Party) Querier() *core.Querier { return p.querier }

// Params returns the shared protocol parameters.
func (p *Party) Params() core.Params { return p.params }

// Accountant returns the party's per-peer privacy accountant.
func (p *Party) Accountant() *dp.Accountant { return p.account }

// IngestDocument sketches one document into both field owners (protocol
// Step 1). The document's local ID is used as the sketch document id.
func (p *Party) IngestDocument(d *textkit.Document) error {
	if err := p.groups[FieldBody].AddDocument(d.ID, CountsToUint64(d.BodyCounts())); err != nil {
		return fmt.Errorf("federation: ingest body of doc %d: %w", d.ID, err)
	}
	if err := p.groups[FieldTitle].AddDocument(d.ID, CountsToUint64(d.TitleCounts())); err != nil {
		return fmt.Errorf("federation: ingest title of doc %d: %w", d.ID, err)
	}
	return nil
}

// IngestAllParallel bulk-loads a document slice, the party's one way to
// load many documents: term counting runs on a pool of workers (workers
// <= 0 resolves to Params.Parallelism / GOMAXPROCS), then the two fields
// load concurrently, each as one batch settled into every RTK-Sketch cell
// at once (see shard.Group.AddDocuments). The caller is the first
// counting worker and loads the titles; one worker counts on the caller
// alone, and one document is counted and loaded there with no goroutine
// started. The resulting party state is identical to ingesting the
// documents one by one (IngestDocument). Each field's batch is checked
// whole before any of it is written; on error the party may hold one
// field's batch but not the other, and callers should treat it as
// unusable.
func (p *Party) IngestAllParallel(docs []*textkit.Document, workers int) error {
	if workers <= 0 {
		workers = p.params.Workers(len(docs))
	}
	bodies := make([]core.DocCounts, len(docs))
	titles := make([]core.DocCounts, len(docs))
	if n := min(workers, len(docs)); n <= 1 {
		for i, d := range docs {
			bodies[i], titles[i] = fieldCounts(d)
		}
	} else {
		var next atomic.Int64
		work := func() {
			for i := int(next.Add(1)) - 1; i < len(docs); i = int(next.Add(1)) - 1 {
				bodies[i], titles[i] = fieldCounts(docs[i])
			}
		}
		var wg sync.WaitGroup
		for w := 1; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
	}
	var bodyErr, titleErr error
	if len(docs) <= 1 {
		bodyErr = p.groups[FieldBody].AddDocuments(bodies)
		titleErr = p.groups[FieldTitle].AddDocuments(titles)
	} else {
		done := make(chan error, 1)
		go func() { done <- p.groups[FieldBody].AddDocuments(bodies) }()
		titleErr = p.groups[FieldTitle].AddDocuments(titles)
		bodyErr = <-done
	}
	if bodyErr != nil {
		return fmt.Errorf("federation: bulk ingest bodies: %w", bodyErr)
	}
	if titleErr != nil {
		return fmt.Errorf("federation: bulk ingest titles: %w", titleErr)
	}
	return nil
}

// fieldCounts returns a document's body and title term counts as batch
// entries.
func fieldCounts(d *textkit.Document) (body, title core.DocCounts) {
	return core.DocCounts{DocID: d.ID, Counts: CountsToUint64(d.BodyCounts())},
		core.DocCounts{DocID: d.ID, Counts: CountsToUint64(d.TitleCounts())}
}

// NumDocs returns the number of documents the party holds.
func (p *Party) NumDocs() int { return len(p.groups[FieldBody].DocIDs()) }

// CountsToUint64 converts a textkit term vector into the raw-count map
// the sketch layer consumes.
func CountsToUint64(tv textkit.TermVector) map[uint64]int64 {
	out := make(map[uint64]int64, len(tv))
	for t, c := range tv {
		out[uint64(t)] = int64(c)
	}
	return out
}

// Federation bundles a server and its parties after a completed setup
// ceremony.
type Federation struct {
	Server  *Server
	Parties []*Party
	Params  core.Params
	// HashSeed is the shared seed derived from the DH ceremony. It is
	// exposed for feature extraction within parties; in the deployed
	// system it never reaches the server.
	HashSeed uint64

	// Resilience state (see resilience.go): the retry/breaker policy
	// and the lazily-created per-party circuit breakers.
	resMu    sync.Mutex
	policy   *resilience.Policy
	breakers map[string]*resilience.Breaker

	// Answer cache state (see cache.go), created lazily on the first
	// search when Params.CacheBytes > 0.
	cacheOnce sync.Once
	qc        *qcache.Cache
	flight    *qcache.Group
	keyer     *qcache.Keyer
}

// Assemble bundles an already-populated server and its registered
// parties into a Federation without running a setup ceremony — for
// embedders that construct and ingest parties themselves (the demo
// server does). It attaches the federated search entry point to the
// server's gateway, so POST /v1/search serves. The parties must already
// be registered with srv and share params and hashSeed.
func Assemble(srv *Server, parties []*Party, params core.Params, hashSeed uint64) *Federation {
	fed := &Federation{Server: srv, Parties: parties, Params: params, HashSeed: hashSeed}
	srv.setSearcher(fed.SearchTraced)
	return fed
}

// New runs the full setup ceremony for the named parties: Diffie-Hellman
// pairwise agreement, sealed distribution of the federation secret
// (package keyex), hash-seed derivation, party construction and server
// registration. rngSeed makes party-side randomness reproducible.
func New(names []string, params core.Params, rngSeed int64) (*Federation, error) {
	secrets, err := keyex.AgreeFederationSecret(len(names), nil)
	if err != nil {
		return nil, fmt.Errorf("federation: key agreement: %w", err)
	}
	// All parties hold the same secret; derive the sketch-hash seed.
	seed := hashutil.DeriveSeed(secrets[0], "csfltr/sketch-hash/v1")
	return NewDeterministic(names, params, seed, rngSeed)
}

// NewDeterministic builds a federation with a fixed hash seed instead of
// running the DH ceremony — for reproducible experiments and tests.
func NewDeterministic(names []string, params core.Params, hashSeed uint64, rngSeed int64) (*Federation, error) {
	if len(names) == 0 {
		return nil, errors.New("federation: need at least one party")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	srv := NewServer()
	fed := &Federation{Server: srv, Params: params, HashSeed: hashSeed}
	srv.setSearcher(fed.SearchTraced)
	for i, name := range names {
		p, err := NewParty(name, PartyConfig{
			Params:  params,
			Seed:    hashSeed,
			RNGSeed: rngSeed + int64(i)*1000,
		})
		if err != nil {
			return nil, err
		}
		if err := srv.Register(p); err != nil {
			return nil, err
		}
		fed.Parties = append(fed.Parties, p)
	}
	return fed, nil
}

// Party returns the party with the given name.
func (f *Federation) Party(name string) (*Party, error) {
	for _, p := range f.Parties {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownParty, name)
}

// ReverseTopK runs the reverse top-K document query from one party
// against another through the server, spending privacy budget with the
// querier's accountant. useRTK selects Algorithm 5 (true) or the NAIVE
// Algorithm 3 (false).
func (f *Federation) ReverseTopK(from, to string, field Field, term uint64, k int, useRTK bool) ([]core.DocCount, core.Cost, error) {
	if from == to {
		return nil, core.Cost{}, ErrSelfQuery
	}
	src, err := f.Party(from)
	if err != nil {
		return nil, core.Cost{}, err
	}
	dst, err := f.Server.OwnerFor(to, field)
	if err != nil {
		return nil, core.Cost{}, err
	}
	if err := src.account.Spend(to, f.Params.Epsilon); err != nil {
		return nil, core.Cost{}, err
	}
	sp := f.Server.metrics().stageSpan(StageRTKQuery, telemetry.SpanContext{})
	defer sp.End()
	if useRTK {
		return core.RTKReverseTopK(src.querier, dst, term, k)
	}
	return core.NaiveReverseTopK(src.querier, dst, term, k)
}

// CrossTF runs one cross-party TF query (Algorithms 1 and 2) from one
// party against a specific document of another party.
func (f *Federation) CrossTF(from, to string, field Field, docID int, term uint64) (float64, error) {
	if from == to {
		return 0, ErrSelfQuery
	}
	src, err := f.Party(from)
	if err != nil {
		return 0, err
	}
	dst, err := f.Server.OwnerFor(to, field)
	if err != nil {
		return 0, err
	}
	if err := src.account.Spend(to, f.Params.Epsilon); err != nil {
		return 0, err
	}
	sp := f.Server.metrics().stageSpan(StageTFQuery, telemetry.SpanContext{})
	defer sp.End()
	return core.CrossTF(src.querier, dst, docID, term)
}
