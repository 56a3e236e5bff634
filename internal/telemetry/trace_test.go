package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	reg := NewRegistry()
	reg.EnableTracing(0, 0)
	h := reg.Histogram("csfltr_test_seconds", "h", nil)

	root := reg.StartRootSpan("search", h, AStr("querier", "A"))
	if !root.Context().Valid() {
		t.Fatal("root context invalid with tracing enabled")
	}
	child := reg.StartChildSpan("fanout", root.Context(), nil)
	grand := reg.StartChildSpan("rtk_query", child.Context(), nil, AInt("attempt", 1))
	grand.AddAttr(AStr("party", "B"))
	grand.End()
	child.End()
	root.End()

	spans, ok := reg.Trace(root.Context().TraceID)
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.TraceID != root.Context().TraceID {
			t.Fatalf("span %s has trace %s, want %s", s.Name, s.TraceID, root.Context().TraceID)
		}
	}
	if byName["fanout"].ParentID != byName["search"].SpanID {
		t.Fatal("fanout not parented under search")
	}
	if byName["rtk_query"].ParentID != byName["fanout"].SpanID {
		t.Fatal("rtk_query not parented under fanout")
	}
	if byName["rtk_query"].Attr("party") != "B" || byName["rtk_query"].Attr("attempt") != "1" {
		t.Fatalf("rtk_query attrs wrong: %+v", byName["rtk_query"].Attrs)
	}
}

func TestTracingDisabledDegradesToPlainSpan(t *testing.T) {
	reg := NewRegistry()
	reg.EnableEvents(8)
	h := reg.Histogram("csfltr_test_seconds", "h", nil)
	sp := reg.StartRootSpan("op", h)
	if sp.Context().Valid() {
		t.Fatal("context should be invalid with tracing disabled")
	}
	sp.End()
	if h.Count() != 1 {
		t.Fatal("histogram not observed")
	}
	evs := reg.Events()
	if len(evs) != 1 || evs[0].Name != "op" || evs[0].TraceID != "" {
		t.Fatalf("unexpected events: %+v", evs)
	}
	if reg.TracingEnabled() {
		t.Fatal("trace store should be off")
	}
	// A child of an invalid parent is likewise untraced.
	ch := reg.StartChildSpan("child", sp.Context(), nil)
	if ch.Context().Valid() {
		t.Fatal("child of invalid parent must be untraced")
	}
	ch.End()
}

func TestTraceStoreBounds(t *testing.T) {
	ts := newTraceStore(2, 3)
	var ids []string
	for i := 0; i < 5; i++ {
		id := NewTraceID()
		ids = append(ids, id)
		for j := 0; j < 5; j++ {
			ts.add(SpanRecord{TraceID: id, SpanID: newSpanID(), Name: "s"})
		}
		spans, ok := ts.trace(id)
		if !ok || len(spans) != 3 {
			t.Fatalf("trace %d: got %d spans, want 3 (capped)", i, len(spans))
		}
	}
	for i, id := range ids {
		if _, ok := ts.trace(id); ok != (i >= 3) {
			t.Fatalf("trace %d retained = %v, want only the newest 2", i, ok)
		}
	}
	if ts.evictedTraces != 3 {
		t.Fatalf("evicted %d traces, want 3", ts.evictedTraces)
	}
}

// TestEventJSONFieldsStable pins the event-log JSON contract: the three
// original field names stay exactly as existing consumers parse them,
// and the additive trace fields are omitted for untraced spans.
func TestEventJSONFieldsStable(t *testing.T) {
	reg := NewRegistry()
	reg.EnableEvents(4)
	reg.StartSpan("plain", nil).End()

	raw, err := json.Marshal(reg.Events())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("got %d events", len(decoded))
	}
	for _, key := range []string{"name", "start_unix_nano", "duration_nanos"} {
		if _, ok := decoded[0][key]; !ok {
			t.Fatalf("stable field %q missing from event JSON: %s", key, raw)
		}
	}
	for _, key := range []string{"trace_id", "span_id", "request_id"} {
		if _, ok := decoded[0][key]; ok {
			t.Fatalf("untraced event leaked field %q: %s", key, raw)
		}
	}

	// Traced spans carry the additive fields.
	reg.EnableTracing(0, 0)
	sp := reg.StartRootSpan("traced", nil)
	sp.SetRequestID("req-1")
	sp.End()
	evs := reg.Events()
	last := evs[len(evs)-1]
	if last.TraceID == "" || last.SpanID == "" || last.RequestID != "req-1" {
		t.Fatalf("traced event missing trace fields: %+v", last)
	}
}

func TestSlowLogAndExemplars(t *testing.T) {
	reg := NewRegistry()
	reg.EnableTracing(0, 0)
	reg.EnableSlowLog(4, time.Microsecond)
	h := reg.Histogram("csfltr_test_seconds", "h", nil)

	sp := reg.StartRootSpan("search", h)
	time.Sleep(2 * time.Millisecond)
	sp.End()

	slow := reg.SlowQueries()
	if len(slow) != 1 {
		t.Fatalf("got %d slow entries, want 1", len(slow))
	}
	if slow[0].TraceID != sp.Context().TraceID || slow[0].Name != "search" {
		t.Fatalf("slow entry mismatch: %+v", slow[0])
	}
	ex := h.Exemplars()
	if len(ex) == 0 || ex[0].TraceID != sp.Context().TraceID {
		t.Fatalf("exemplar not linked to trace: %+v", ex)
	}
	// The snapshot carries the exemplar too.
	snap := reg.Snapshot()
	ms := snap.Metric("csfltr_test_seconds")
	if ms == nil || len(ms.Series[0].Exemplars) == 0 {
		t.Fatal("snapshot missing exemplars")
	}
}

// TestEnableEventsKeepsLog: a second EnableEvents keeps the log already
// on — its capacity and its events — and a non-positive capacity turns
// nothing on.
func TestEnableEventsKeepsLog(t *testing.T) {
	reg := NewRegistry()
	reg.EnableEvents(0)
	reg.StartSpan("dropped", nil).End()
	if ev := reg.Events(); ev != nil {
		t.Fatalf("capacity 0 turned the log on: %+v", ev)
	}
	reg.EnableEvents(2)
	reg.StartSpan("first", nil).End()
	reg.EnableEvents(8)
	reg.EnableEvents(0)
	for _, name := range []string{"second", "third"} {
		reg.StartSpan(name, nil).End()
	}
	ev := reg.Events()
	if len(ev) != 2 || ev[0].Name != "second" || ev[1].Name != "third" {
		t.Fatalf("events = %+v, want second and third in a ring of 2", ev)
	}
}

// TestEnableSlowLogKeepsLog: a second EnableSlowLog keeps the log
// already on — its floor and its entries.
func TestEnableSlowLogKeepsLog(t *testing.T) {
	reg := NewRegistry()
	reg.EnableTracing(0, 0)
	reg.EnableSlowLog(4, time.Nanosecond)
	first := reg.StartRootSpan("first", nil)
	time.Sleep(time.Millisecond)
	first.End()
	// A floor no span reaches, were it installed.
	reg.EnableSlowLog(4, time.Hour)
	second := reg.StartRootSpan("second", nil)
	time.Sleep(time.Millisecond)
	second.End()
	slow := reg.SlowQueries()
	if len(slow) != 2 || slow[0].TraceID != first.Context().TraceID || slow[1].TraceID != second.Context().TraceID {
		t.Fatalf("slow entries = %+v, want both spans under the first floor", slow)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	reg := NewRegistry()
	reg.EnableTracing(0, 0)
	root := reg.StartRootSpan("search", nil)
	a := reg.StartChildSpan("fanout", root.Context(), nil)
	b := reg.StartChildSpan("rtk_query", a.Context(), nil, AStr("party", "B"))
	b.End()
	a.End()
	root.End()

	spans, _ := reg.Trace(root.Context().TraceID)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("unexpected document: %s", buf.String())
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if ev.Ph != "X" || ev.PID != 1 {
			t.Fatalf("unexpected event: %+v", ev)
		}
	}
	for _, want := range []string{"search", "fanout", "rtk_query"} {
		if !names[want] {
			t.Fatalf("missing %s in %s", want, buf.String())
		}
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		if !strings.HasPrefix(id, "t") {
			t.Fatalf("trace ID %s missing prefix", id)
		}
		seen[id] = true
	}
}
