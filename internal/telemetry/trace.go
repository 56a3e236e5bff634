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

// traceStore retains completed spans grouped by trace, bounded both in
// the number of traces (FIFO eviction of whole traces) and in spans per
// trace (excess spans are dropped and counted).
type traceStore struct {
	mu            sync.Mutex
	maxTraces     int
	maxSpansPer   int
	traces        map[string]*traceEntry
	order         []string // trace IDs in first-seen order, for eviction
	droppedSpans  int64
	evictedTraces int64
}

type traceEntry struct {
	spans   []SpanRecord
	dropped int
}

func newTraceStore(maxTraces, maxSpansPer int) *traceStore {
	return &traceStore{
		maxTraces:   maxTraces,
		maxSpansPer: maxSpansPer,
		traces:      make(map[string]*traceEntry, maxTraces),
	}
}

func (ts *traceStore) add(rec SpanRecord) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.traces[rec.TraceID]
	if !ok {
		for len(ts.order) >= ts.maxTraces {
			oldest := ts.order[0]
			ts.order = ts.order[1:]
			delete(ts.traces, oldest)
			ts.evictedTraces++
		}
		e = &traceEntry{}
		ts.traces[rec.TraceID] = e
		ts.order = append(ts.order, rec.TraceID)
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
// call are retained, grouped by trace ID. maxTraces bounds the number of
// retained traces (oldest evicted first); maxSpansPerTrace bounds each
// trace's span count (excess dropped). Non-positive arguments select the
// defaults (256 traces × 512 spans). Enabling is idempotent.
func (r *Registry) EnableTracing(maxTraces, maxSpansPerTrace int) {
	if maxTraces <= 0 {
		maxTraces = 256
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = 512
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traces == nil {
		r.traces = newTraceStore(maxTraces, maxSpansPerTrace)
	}
}

// TracingEnabled reports whether the trace store is active.
func (r *Registry) TracingEnabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traces != nil
}

// Trace returns the retained spans of one trace, in end order.
func (r *Registry) Trace(id string) ([]SpanRecord, bool) {
	r.mu.Lock()
	ts := r.traces
	r.mu.Unlock()
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

// slowLog is a bounded ring of SlowEntry records.
type slowLog struct {
	mu    sync.Mutex
	buf   []SlowEntry
	next  int
	full  bool
	floor time.Duration
}

// slowMinCount is how many observations a histogram needs before its p99
// bound is trusted for slow-query admission.
const slowMinCount = 20

func (l *slowLog) consider(h *Histogram, name string, ctx SpanContext, reqID string, start time.Time, d time.Duration) {
	var threshold float64
	switch {
	case l.floor > 0 && d >= l.floor:
		threshold = l.floor.Seconds()
	case h != nil && h.Count() >= slowMinCount:
		p99 := h.Quantile(0.99)
		if !(d.Seconds() >= p99) { // NaN-safe: records only when d reached the bound
			return
		}
		threshold = p99
	default:
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf[l.next] = SlowEntry{
		Name:          name,
		TraceID:       ctx.TraceID,
		RequestID:     reqID,
		StartUnixNano: start.UnixNano(),
		DurationNanos: int64(d),
		ThresholdSecs: threshold,
	}
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
}

func (l *slowLog) entries() []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		return append([]SlowEntry(nil), l.buf[:l.next]...)
	}
	out := make([]SlowEntry, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	return append(out, l.buf[:l.next]...)
}

// EnableSlowLog turns on the slow-query log: a traced span whose
// duration is at least floor — or, when floor is zero, at least its own
// histogram's current p99 bucket bound (after slowMinCount samples) —
// is recorded with its trace ID. A log already on keeps its settings and
// its entries; capacity <= 0 leaves the log as it is.
func (r *Registry) EnableSlowLog(capacity int, floor time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.slow == nil && capacity > 0 {
		r.slow = &slowLog{buf: make([]SlowEntry, capacity), floor: floor}
	}
}

// SlowQueries returns the slow-query log entries, oldest first.
func (r *Registry) SlowQueries() []SlowEntry {
	r.mu.Lock()
	l := r.slow
	r.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.entries()
}

// TraceSpan is a started span carrying trace identity. Like Span it must
// be ended exactly once; End records the duration into the backing
// histogram (with a trace-ID exemplar), the event log, the trace store
// and — for tail samples — the slow-query log.
type TraceSpan struct {
	reg    *Registry
	hist   *Histogram
	name   string
	reqID  string
	start  time.Time
	ctx    SpanContext
	parent string
	attrs  []Attr
}

// StartRootSpan starts a new trace rooted at a span named name. When
// tracing is disabled on the registry the returned span degrades to
// plain Span behaviour (histogram + event log only) and its Context is
// invalid.
func (r *Registry) StartRootSpan(name string, h *Histogram, attrs ...Attr) *TraceSpan {
	s := &TraceSpan{reg: r, hist: h, name: name, start: time.Now(), attrs: attrs}
	if r.TracingEnabled() {
		s.ctx = SpanContext{TraceID: NewTraceID(), SpanID: newSpanID()}
	}
	return s
}

// StartChildSpan starts a span under parent. An invalid parent (or
// tracing disabled) degrades to plain Span behaviour.
func (r *Registry) StartChildSpan(name string, parent SpanContext, h *Histogram, attrs ...Attr) *TraceSpan {
	s := &TraceSpan{reg: r, hist: h, name: name, start: time.Now(), attrs: attrs}
	if parent.Valid() && r.TracingEnabled() {
		s.ctx = SpanContext{TraceID: parent.TraceID, SpanID: newSpanID()}
		s.parent = parent.SpanID
	}
	return s
}

// Context returns the span's trace identity (invalid when untraced).
func (s *TraceSpan) Context() SpanContext { return s.ctx }

// SetRequestID attaches the transport request ID (propagated alongside
// the trace context) to the span.
func (s *TraceSpan) SetRequestID(id string) { s.reqID = id }

// AddAttr appends attributes to the span (not safe for concurrent use
// with End; attach from the owning goroutine only).
func (s *TraceSpan) AddAttr(attrs ...Attr) { s.attrs = append(s.attrs, attrs...) }

// End stops the span, records it everywhere it belongs and returns the
// measured duration. A nil or zero-value span is a no-op.
func (s *TraceSpan) End() time.Duration {
	if s == nil || s.reg == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.hist != nil {
		if s.ctx.Valid() {
			s.hist.ObserveTraced(d.Seconds(), s.ctx.TraceID)
		} else {
			s.hist.Observe(d.Seconds())
		}
	}
	s.reg.mu.Lock()
	events, traces, slow := s.reg.events, s.reg.traces, s.reg.slow
	s.reg.mu.Unlock()
	if events != nil {
		events.append(Event{
			Name:          s.name,
			StartUnixNano: s.start.UnixNano(),
			DurationNanos: int64(d),
			TraceID:       s.ctx.TraceID,
			SpanID:        s.ctx.SpanID,
			RequestID:     s.reqID,
		})
	}
	if traces != nil && s.ctx.Valid() {
		traces.add(SpanRecord{
			Name:          s.name,
			TraceID:       s.ctx.TraceID,
			SpanID:        s.ctx.SpanID,
			ParentID:      s.parent,
			RequestID:     s.reqID,
			StartUnixNano: s.start.UnixNano(),
			DurationNanos: int64(d),
			Attrs:         s.attrs,
		})
	}
	if slow != nil && s.ctx.Valid() {
		slow.consider(s.hist, s.name, s.ctx, s.reqID, s.start, d)
	}
	return d
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
