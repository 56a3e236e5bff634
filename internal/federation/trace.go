package federation

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/telemetry"
)

// Flight recorder: a bounded append-only ledger of per-query audit
// records, paired with the registry's trace store (see DESIGN.md §13).
// One record per federated query answers, after the fact, the questions
// the paper's headline metrics raise per query: how much privacy budget
// each peer was charged, how many bytes moved over which transport, what
// was replayed for free, and how degraded the answer was.
//
// Privacy contract: records carry term *counts* and keyed term hashes
// only — never raw terms, documents or anything marked //csfltr:private.

// Audit outcome values (bounded vocabulary).
const (
	AuditOK            = "ok"             // full roster answered freshly
	AuditPartial       = "partial"        // degraded: some parties missing
	AuditQuorumLost    = "quorum_lost"    // fewer than MinParties answered
	AuditBudgetRefused = "budget_refused" // aborted by the accountant
	AuditError         = "error"          // failed for any other reason
	AuditReplay        = "replay"         // served from the query-tier cache
	AuditCoalesced     = "coalesced"      // absorbed into an in-flight twin
)

// AuditParty is one data party's row in an audit record.
type AuditParty struct {
	Party     string `json:"party"`
	Transport string `json:"transport,omitempty"`
	// Outcome is the per-party search outcome vocabulary (OutcomeOK,
	// OutcomeFailed, OutcomeSkipped, OutcomeStale) or AuditReplay when
	// the whole query replayed from the cache.
	Outcome string `json:"outcome"`
	// Queries counts privacy-budget spends against this party — exactly
	// the accountant's Spend calls, including spends whose query later
	// failed (budget is charged before dispatch).
	Queries int `json:"queries"`
	// Cached counts zero-spend replays served for this party.
	Cached  int `json:"cached"`
	Retries int `json:"retries"`
	// Epsilon is the privacy budget this query charged against the
	// party: Queries × the per-query epsilon. Replays contribute zero.
	Epsilon       float64 `json:"epsilon"`
	Bytes         int64   `json:"bytes"`
	Messages      int64   `json:"messages"`
	StaleForNanos int64   `json:"stale_for_nanos,omitempty"`
	Err           string  `json:"error,omitempty"`
}

// AuditStage is the wall-clock spent in one pipeline stage.
type AuditStage struct {
	Stage         string `json:"stage"`
	DurationNanos int64  `json:"duration_nanos"`
}

// AuditRecord is one federated query in the flight recorder.
type AuditRecord struct {
	TraceID string `json:"trace_id,omitempty"`
	// Op is "search", the one audited operation.
	Op      string `json:"op"`
	Querier string `json:"querier"`
	// Terms is the number of deduplicated query terms (count only — the
	// terms themselves never enter the record).
	Terms         int    `json:"terms"`
	K             int    `json:"k,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_nanos"`
	Outcome       string `json:"outcome"`
	Partial       bool   `json:"partial,omitempty"`
	// EpsilonSpent is the total privacy budget the query charged, summed
	// over parties.
	EpsilonSpent float64      `json:"epsilon_spent"`
	Bytes        int64        `json:"bytes"`
	Messages     int64        `json:"messages"`
	Parties      []AuditParty `json:"parties,omitempty"`
	Stages       []AuditStage `json:"stages,omitempty"`
	Err          string       `json:"error,omitempty"`
}

// The flight recorder's bounds: each ring keeps its newest entries.
const (
	auditCapacity   = 1024 // audit records
	slowLogCapacity = 64   // slow-query log entries
)

// TraceConfig configures the flight recorder (Server.EnableTracing).
// The zero value leaves the event log off.
type TraceConfig struct {
	// EventCapacity, when positive, also enables the registry's
	// structured event log at that capacity.
	EventCapacity int
}

// EnableTracing turns on the tracing substrate end to end: the
// registry's trace store, slow-query log (and optionally event log), and
// the server's per-query audit ledger. A span is slow when it reaches
// its histogram's p99 bound. Searches run after this call produce one
// trace tree each, retrievable via Server.TraceTree / GET /v1/trace/{id},
// plus one audit record via Server.AuditRecords / GET /v1/audit.
// Enabling is idempotent: a log already on, here or on the registry
// through another server, keeps its entries. There is no disable switch
// — construct a fresh server to trace-free state.
func (s *Server) EnableTracing(cfg TraceConfig) {
	reg := s.Metrics()
	reg.EnableTracing()
	reg.EnableEvents(cfg.EventCapacity)
	reg.EnableSlowLog(slowLogCapacity, 0)
	if s.audit.Load() == nil {
		s.audit.CompareAndSwap(nil, telemetry.NewRing[AuditRecord](auditCapacity))
	}
}

// TracingEnabled reports whether the flight recorder is on.
func (s *Server) TracingEnabled() bool { return s.audit.Load() != nil }

// AuditRecords returns the retained audit records, oldest first.
func (s *Server) AuditRecords() []AuditRecord {
	l := s.audit.Load()
	if l == nil {
		return nil
	}
	return l.Snapshot()
}

// AuditFor returns the audit record of one trace.
func (s *Server) AuditFor(traceID string) (AuditRecord, bool) {
	l := s.audit.Load()
	if l == nil || traceID == "" {
		return AuditRecord{}, false
	}
	return l.Newest(func(rec AuditRecord) bool { return rec.TraceID == traceID })
}

// TraceTree returns the retained spans of one trace, ordered parents
// before children (see telemetry.SortSpans).
func (s *Server) TraceTree(id string) ([]telemetry.SpanRecord, bool) {
	spans, ok := s.Metrics().Trace(id)
	if ok {
		telemetry.SortSpans(spans)
	}
	return spans, ok
}

// auditAppend commits one record to the ledger (no-op when off).
func (s *Server) auditAppend(rec AuditRecord) {
	if l := s.audit.Load(); l != nil {
		l.Push(rec)
	}
}

// transportFor names the transport behind one roster entry ("" for an
// unknown party).
func (s *Server) transportFor(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.parties[name]; ok {
		return e.transport()
	}
	return ""
}

// TermHash is the privacy-safe identity of a query term in span
// attributes, audit records and logs: a keyed hash under the federation
// hash seed, stable within the federation and meaningless outside it.
// Raw term IDs never appear in telemetry.
func (f *Federation) TermHash(term uint64) string {
	h := f.HashSeed ^ 0x9e3779b97f4a7c15
	h ^= term
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return strconv.FormatUint(h, 16)
}

// searchRun threads per-query trace and audit state from Search through
// the cache and fan-out layers.
type searchRun struct {
	parent telemetry.SpanContext // root search span (invalid when untraced)
	audit  bool                  // flight recorder on
	terms  int                   // deduplicated term count

	mu       sync.Mutex
	outcome  string               // AuditReplay / AuditCoalesced override
	stages   []AuditStage         // stage wall-clock in execution order
	costs    map[string]core.Cost // per-party wire cost
	refused  []PartyReport        // roster state at a budget refusal
	replayed []string             // parties of a query-tier replay
}

// addStage records one stage's wall-clock (audit only).
func (r *searchRun) addStage(stage string, d time.Duration) {
	if r == nil || !r.audit {
		return
	}
	r.mu.Lock()
	r.stages = append(r.stages, AuditStage{Stage: stage, DurationNanos: int64(d)})
	r.mu.Unlock()
}

// addCost attributes one task's wire cost to a party (audit only).
func (r *searchRun) addCost(party string, c core.Cost) {
	if r == nil || !r.audit {
		return
	}
	r.mu.Lock()
	if r.costs == nil {
		r.costs = make(map[string]core.Cost)
	}
	cur := r.costs[party]
	cur.Add(c)
	r.costs[party] = cur
	r.mu.Unlock()
}

// commitSearchAudit turns one finished search into its audit record.
func (f *Federation) commitSearchAudit(run *searchRun, from string, k int,
	start time.Time, d time.Duration, res *SearchResult, err error) {
	if run == nil || !run.audit {
		return
	}
	eps := f.Params.Epsilon
	rec := AuditRecord{
		TraceID:       run.parent.TraceID,
		Op:            "search",
		Querier:       from,
		Terms:         run.terms,
		K:             k,
		StartUnixNano: start.UnixNano(),
		DurationNanos: int64(d),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	addParty := func(p AuditParty) {
		rec.EpsilonSpent += p.Epsilon
		rec.Bytes += p.Bytes
		rec.Messages += p.Messages
		rec.Parties = append(rec.Parties, p)
	}
	fromReport := func(rep PartyReport) AuditParty {
		c := run.costs[rep.Party]
		return AuditParty{
			Party:         rep.Party,
			Transport:     f.Server.transportFor(rep.Party),
			Outcome:       rep.Outcome,
			Queries:       rep.Queries,
			Cached:        rep.Cached,
			Retries:       rep.Retries,
			Epsilon:       float64(rep.Queries) * eps,
			Bytes:         c.BytesSent + c.BytesReceived,
			Messages:      int64(c.Messages),
			StaleForNanos: int64(rep.StaleFor),
			Err:           rep.Err,
		}
	}
	switch {
	case run.outcome == AuditCoalesced:
		// The leader's record owns the fan-out's budget and bytes; the
		// absorbed caller charges nothing.
		rec.Outcome = AuditCoalesced
	case run.outcome == AuditReplay:
		// Whole-query cache replay: every party served at zero spend. The
		// cached result's reports describe the original fan-out, so the
		// replay builds fresh zero-epsilon rows instead.
		rec.Outcome = AuditReplay
		for _, party := range run.replayed {
			addParty(AuditParty{
				Party:     party,
				Transport: f.Server.transportFor(party),
				Outcome:   AuditReplay,
				Cached:    run.terms,
			})
		}
	case errors.Is(err, dp.ErrBudgetExceeded):
		// The roster loop aborted mid-enumeration: earlier parties' spends
		// (and the refusing party's partial spend) already happened and
		// must stay on the books.
		rec.Outcome = AuditBudgetRefused
		for _, rep := range run.refused {
			addParty(fromReport(rep))
		}
	case res == nil:
		rec.Outcome = AuditError
	default:
		switch {
		case errors.Is(err, ErrQuorum):
			rec.Outcome = AuditQuorumLost
		case err != nil:
			rec.Outcome = AuditError
		case res.Partial:
			rec.Outcome = AuditPartial
		default:
			rec.Outcome = AuditOK
		}
		rec.Partial = res.Partial
		for _, rep := range res.Parties {
			addParty(fromReport(rep))
		}
	}
	rec.Stages = run.stages
	f.Server.auditAppend(rec)
}
