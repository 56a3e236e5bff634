package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one benchmark-side measurement around a call into a layer:
// name, start, end, the span that caused it and the op it belongs to.
type span struct {
	name       string
	start, end time.Time
	parent     int // index of the enclosing span, -1 at the top
	op         int // index of the sampled op, -1 outside any op
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code path serves untraced runs.
type tracer struct {
	spans  []span
	parent int
	op     int
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<16), parent: -1, op: -1}
}

// begin opens a span under the current parent; end closes it and returns
// its duration. Taking the clock is the last thing begin and the first
// thing end does, so the tracer's own bookkeeping stays outside the span.
func (tr *tracer) begin(name string) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{name: name, parent: tr.parent, op: tr.op})
	id := len(tr.spans) - 1
	tr.spans[id].start = time.Now()
	return id
}

func (tr *tracer) end(id int) time.Duration {
	now := time.Now()
	if tr == nil {
		return 0
	}
	tr.spans[id].end = now
	return now.Sub(tr.spans[id].start)
}

// enter opens a span and makes it the parent of those begun before the
// matching leave.
func (tr *tracer) enter(name string) int {
	id := tr.begin(name)
	if tr != nil {
		tr.parent = id
	}
	return id
}

func (tr *tracer) leave(id int) time.Duration {
	d := tr.end(id)
	if tr != nil {
		tr.parent = tr.spans[id].parent
	}
	return d
}

// selfMicros sums, per span name, the spans' durations minus the part
// their child spans cover.
func (tr *tracer) selfMicros() map[string]float64 {
	children := make([]time.Duration, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end.Sub(s.start)
		}
	}
	out := make(map[string]float64)
	for i, s := range tr.spans {
		out[s.name] += float64(s.end.Sub(s.start)-children[i]) / 1e3
	}
	return out
}

// totals sums the spans' durations per name, in microseconds.
func (tr *tracer) totals() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range tr.spans {
		out[s.name] += float64(s.end.Sub(s.start)) / 1e3
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events, one track per op) for chrome://tracing or Perfetto.
func (tr *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	buf.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	var epoch time.Time
	if len(tr.spans) > 0 {
		epoch = tr.spans[0].start
	}
	for i, s := range tr.spans {
		if i > 0 {
			buf.WriteByte(',')
		}
		if err := enc.Encode(event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(epoch)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
			Pid: 1, Tid: s.op + 1,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		}); err != nil {
			return err
		}
	}
	buf.WriteString("]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
