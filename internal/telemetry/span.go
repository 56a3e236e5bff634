package telemetry

import (
	"sync"
	"time"
)

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

// eventLog is a bounded ring buffer of completed spans.
type eventLog struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

func (l *eventLog) append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf[l.next] = e
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
}

func (l *eventLog) events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		return append([]Event(nil), l.buf[:l.next]...)
	}
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	return append(out, l.buf[:l.next]...)
}

// EnableEvents turns on the structured event log with the given ring
// capacity (older events are overwritten). Spans ended after this call
// are appended. A log already on keeps its capacity and its events;
// capacity <= 0 leaves the log as it is.
func (r *Registry) EnableEvents(capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events == nil && capacity > 0 {
		r.events = &eventLog{buf: make([]Event, capacity)}
	}
}

// Events returns the logged events, oldest first.
func (r *Registry) Events() []Event {
	r.mu.Lock()
	l := r.events
	r.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.events()
}

// Span is a started protocol timer. End it exactly once; the duration is
// recorded into the backing histogram and, when the registry's event log
// is enabled, appended as a structured Event.
type Span struct {
	reg   *Registry
	hist  *Histogram
	name  string
	start time.Time
}

// StartSpan starts a timer named name recording into h (which may be
// nil to only feed the event log).
func (r *Registry) StartSpan(name string, h *Histogram) Span {
	return Span{reg: r, hist: h, name: name, start: time.Now()}
}

// End stops the span, records it and returns the measured duration. A
// zero-value Span is a no-op.
func (s Span) End() time.Duration {
	if s.reg == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.hist != nil {
		s.hist.Observe(d.Seconds())
	}
	s.reg.mu.Lock()
	l := s.reg.events
	s.reg.mu.Unlock()
	if l != nil {
		l.append(Event{Name: s.name, StartUnixNano: s.start.UnixNano(), DurationNanos: int64(d)})
	}
	return d
}
