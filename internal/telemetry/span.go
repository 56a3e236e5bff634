package telemetry

import "time"

// Event is one completed span in the structured event log. The first
// three fields are the stable contract existing JSON consumers parse;
// the trace fields are additive and omitted for untraced spans.
type Event struct {
	Name          string `json:"name"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_nanos"`
	TraceID       string `json:"trace_id,omitempty"`
	SpanID        string `json:"span_id,omitempty"`
	RequestID     string `json:"request_id,omitempty"`
}

// EnableEvents turns on the structured event log with the given ring
// capacity (older events are overwritten). Spans ended after this call
// are appended. A log already on keeps its capacity and its events;
// capacity <= 0 leaves the log as it is.
func (r *Registry) EnableEvents(capacity int) {
	if capacity > 0 && r.events.Load() == nil {
		r.events.CompareAndSwap(nil, NewRing[Event](capacity))
	}
}

// Events returns the logged events, oldest first.
func (r *Registry) Events() []Event {
	if l := r.events.Load(); l != nil {
		return l.Snapshot()
	}
	return nil
}

// Span is a started protocol timer: the one span type, traced or not.
// A traced span carries a trace identity and attributes and lands in the
// trace store; an untraced one only times its histogram and the event
// log, and allocates nothing. End it exactly once.
type Span struct {
	reg    *Registry
	hist   *Histogram
	name   string
	start  time.Time
	ctx    SpanContext // invalid when untraced
	parent string
	reqID  string
	attrs  []Attr
}

// StartRootSpan starts a span named name recording into h (which may be
// nil to skip the histogram). With tracing enabled it roots a new trace;
// otherwise the span is untraced and its Context is invalid.
func (r *Registry) StartRootSpan(name string, h *Histogram) Span {
	s := Span{reg: r, hist: h, name: name, start: time.Now()}
	if r.TracingEnabled() {
		s.ctx = SpanContext{TraceID: NewTraceID(), SpanID: newSpanID()}
	}
	return s
}

// StartChildSpan starts a span under parent. It is traced only when
// parent is valid and tracing is enabled; otherwise it is untraced.
func (r *Registry) StartChildSpan(name string, parent SpanContext, h *Histogram) Span {
	s := Span{reg: r, hist: h, name: name, start: time.Now()}
	if parent.Valid() && r.TracingEnabled() {
		s.ctx = SpanContext{TraceID: parent.TraceID, SpanID: newSpanID()}
		s.parent = parent.SpanID
	}
	return s
}

// Context returns the span's trace identity (invalid when untraced).
func (s *Span) Context() SpanContext { return s.ctx }

// SetRequestID attaches the transport request ID (propagated alongside
// the trace context) to a traced span.
func (s *Span) SetRequestID(id string) {
	if s.ctx.Valid() {
		s.reqID = id
	}
}

// AddAttr appends attributes to a traced span; an untraced span keeps
// none. Not safe for concurrent use with End: attach from the owning
// goroutine only.
func (s *Span) AddAttr(attrs ...Attr) {
	if s.ctx.Valid() {
		s.attrs = append(s.attrs, attrs...)
	}
}

// End stops the span, records it and returns the measured duration: into
// its histogram (with the trace ID as exemplar when traced) and the event
// log, and, when traced, into the trace store and the slow-query log. A
// zero-value Span is a no-op.
func (s *Span) End() time.Duration {
	if s.reg == nil {
		return 0
	}
	d := time.Since(s.start)
	traced := s.ctx.Valid()
	if s.hist != nil {
		if traced {
			s.hist.ObserveTraced(d.Seconds(), s.ctx.TraceID)
		} else {
			s.hist.Observe(d.Seconds())
		}
	}
	if l := s.reg.events.Load(); l != nil {
		l.Push(Event{
			Name:          s.name,
			StartUnixNano: s.start.UnixNano(),
			DurationNanos: int64(d),
			TraceID:       s.ctx.TraceID,
			SpanID:        s.ctx.SpanID,
			RequestID:     s.reqID,
		})
	}
	if !traced {
		return d
	}
	// A traced span was started with tracing on, and the trace store is
	// never turned off again.
	s.reg.traces.Load().add(SpanRecord{
		Name:          s.name,
		TraceID:       s.ctx.TraceID,
		SpanID:        s.ctx.SpanID,
		ParentID:      s.parent,
		RequestID:     s.reqID,
		StartUnixNano: s.start.UnixNano(),
		DurationNanos: int64(d),
		Attrs:         s.attrs,
	})
	if l := s.reg.slow.Load(); l != nil {
		l.consider(s, d)
	}
	return d
}
