package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the distributed-tracing extension of the span model: spans
// gain a trace ID / span ID / parent ID plus a small bag of typed
// attributes, completed spans are retained per trace in a bounded store,
// and a slow-query log links histogram tails to trace IDs (exemplars).
//
// Privacy contract: attribute values MUST be privacy-safe — party names,
// transports, counters, keyed term hashes. Raw query terms, document
// payloads and anything marked //csfltr:private never enter an Attr; the
// privacyboundary analyzer fixtures pin this down (any stringification
// of a private value trips the fmt/marshal sink checks).

// SpanContext identifies a span's position in a trace: the trace it
// belongs to and its own span ID. The zero value is invalid and means
// "not traced".
type SpanContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// Valid reports whether the context carries a usable trace identity.
func (c SpanContext) Valid() bool { return c.TraceID != "" && c.SpanID != "" }

// Attr is one typed key/value attribute on a span. Unlike metric Labels,
// attrs live on individual spans inside the bounded trace store, so
// high-cardinality values (trace IDs, keyed term hashes, attempt
// numbers) are fine here and do not create metric series.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// AStr builds a string attribute.
func AStr(key, value string) Attr { return Attr{Key: key, Value: value} }

// AInt builds an integer attribute.
func AInt(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// SpanRecord is one completed span as retained by the trace store and
// served from GET /v1/trace/{id}.
type SpanRecord struct {
	Name          string `json:"name"`
	TraceID       string `json:"trace_id"`
	SpanID        string `json:"span_id"`
	ParentID      string `json:"parent_id,omitempty"`
	RequestID     string `json:"request_id,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_nanos"`
	Attrs         []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute ("" when absent).
func (s SpanRecord) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// traceIDCounter numbers trace and span IDs within the process; the
// shared requestIDPrefix keeps IDs from different silos distinct.
var traceIDCounter atomic.Uint64

// NewTraceID returns a new process-unique trace identifier.
func NewTraceID() string {
	return fmt.Sprintf("t%s%010x", requestIDPrefix, traceIDCounter.Add(1))
}

// newSpanID returns a new process-unique span identifier.
func newSpanID() string {
	return fmt.Sprintf("s%s%010x", requestIDPrefix, traceIDCounter.Add(1))
}

// The trace store's bounds: the newest maxTraces traces are kept, and
// each keeps its first maxSpansPerTrace spans (the excess is dropped).
const (
	maxTraces        = 256
	maxSpansPerTrace = 512
)

// traceStore retains completed spans grouped by trace, bounded both in
// the number of traces (FIFO eviction of whole traces) and in spans per
// trace (excess spans are dropped and counted).
type traceStore struct {
	mu            sync.Mutex
	maxSpansPer   int
	traces        map[string]*traceEntry
	order         *Ring[string] // trace IDs in first-seen order, for eviction
	droppedSpans  int64
	evictedTraces int64
}

type traceEntry struct {
	spans   []SpanRecord
	dropped int
}

func newTraceStore(maxTraces, maxSpansPer int) *traceStore {
	return &traceStore{
		maxSpansPer: maxSpansPer,
		traces:      make(map[string]*traceEntry, maxTraces),
		order:       NewRing[string](maxTraces),
	}
}

func (ts *traceStore) add(rec SpanRecord) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.traces[rec.TraceID]
	if !ok {
		if oldest, evicted := ts.order.Push(rec.TraceID); evicted {
			delete(ts.traces, oldest)
			ts.evictedTraces++
		}
		e = &traceEntry{}
		ts.traces[rec.TraceID] = e
	}
	if len(e.spans) >= ts.maxSpansPer {
		e.dropped++
		ts.droppedSpans++
		return
	}
	e.spans = append(e.spans, rec)
}

func (ts *traceStore) trace(id string) ([]SpanRecord, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.traces[id]
	if !ok {
		return nil, false
	}
	return append([]SpanRecord(nil), e.spans...), true
}

// EnableTracing turns on the trace store: traced spans ended after this
// call are retained, grouped by trace ID, up to 256 traces (oldest
// evicted first) of up to 512 spans each (excess dropped). Enabling is
// idempotent.
func (r *Registry) EnableTracing() {
	if r.traces.Load() == nil {
		r.traces.CompareAndSwap(nil, newTraceStore(maxTraces, maxSpansPerTrace))
	}
}

// TracingEnabled reports whether the trace store is active.
func (r *Registry) TracingEnabled() bool { return r.traces.Load() != nil }

// Trace returns the retained spans of one trace, in end order.
func (r *Registry) Trace(id string) ([]SpanRecord, bool) {
	ts := r.traces.Load()
	if ts == nil {
		return nil, false
	}
	return ts.trace(id)
}

// SlowEntry is one slow-query log record: a histogram tail sample linked
// to the trace that produced it.
type SlowEntry struct {
	Name          string  `json:"name"`
	TraceID       string  `json:"trace_id"`
	RequestID     string  `json:"request_id,omitempty"`
	StartUnixNano int64   `json:"start_unix_nano"`
	DurationNanos int64   `json:"duration_nanos"`
	ThresholdSecs float64 `json:"threshold_seconds"`
}

// slowLog is the slow-query log: a ring of SlowEntry records and the
// floor that admits a span regardless of its histogram.
type slowLog struct {
	entries *Ring[SlowEntry]
	floor   time.Duration
}

// slowMinCount is how many observations a histogram needs before its p99
// bound is trusted for slow-query admission.
const slowMinCount = 20

// consider logs the ended traced span s, of duration d, when it was slow.
func (l *slowLog) consider(s *Span, d time.Duration) {
	var threshold float64
	switch {
	case l.floor > 0 && d >= l.floor:
		threshold = l.floor.Seconds()
	case s.hist != nil && s.hist.Count() >= slowMinCount:
		p99 := s.hist.Quantile(0.99)
		if !(d.Seconds() >= p99) { // NaN-safe: records only when d reached the bound
			return
		}
		threshold = p99
	default:
		return
	}
	l.entries.Push(SlowEntry{
		Name:          s.name,
		TraceID:       s.ctx.TraceID,
		RequestID:     s.reqID,
		StartUnixNano: s.start.UnixNano(),
		DurationNanos: int64(d),
		ThresholdSecs: threshold,
	})
}

// EnableSlowLog turns on the slow-query log: a traced span whose
// duration is at least floor — or, when floor is zero, at least its own
// histogram's current p99 bucket bound (after slowMinCount samples) —
// is recorded with its trace ID. A log already on keeps its settings and
// its entries; capacity <= 0 leaves the log as it is.
func (r *Registry) EnableSlowLog(capacity int, floor time.Duration) {
	if capacity > 0 && r.slow.Load() == nil {
		r.slow.CompareAndSwap(nil, &slowLog{entries: NewRing[SlowEntry](capacity), floor: floor})
	}
}

// SlowQueries returns the slow-query log entries, oldest first.
func (r *Registry) SlowQueries() []SlowEntry {
	if l := r.slow.Load(); l != nil {
		return l.entries.Snapshot()
	}
	return nil
}

// SortSpans orders spans topologically for display: by start time, with
// ties broken by span ID, which places parents before their children
// (a child starts after its parent).
func SortSpans(spans []SpanRecord) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartUnixNano != spans[j].StartUnixNano {
			return spans[i].StartUnixNano < spans[j].StartUnixNano
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}
