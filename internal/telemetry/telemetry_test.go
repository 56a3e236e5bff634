package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("csfltr_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same handle.
	if r.Counter("csfltr_test_ops_total", "ops") != c {
		t.Fatal("re-resolving a counter returned a different handle")
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("after Reset counter = %d, want 0", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	NewRegistry().Counter("csfltr_test_total", "").Add(-1)
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("csfltr_relay_total", "relays", L("party", "A"))
	b := r.Counter("csfltr_relay_total", "relays", L("party", "B"))
	if a == b {
		t.Fatal("distinct label sets shared a series")
	}
	// Label order must not matter.
	ab := r.Counter("csfltr_multi_total", "", L("x", "1"), L("y", "2"))
	ba := r.Counter("csfltr_multi_total", "", L("y", "2"), L("x", "1"))
	if ab != ba {
		t.Fatal("label order changed series identity")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("csfltr_test_metric", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("csfltr_test_metric", "")
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("csfltr_test_inflight", "in flight")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(0.5)
	if got := g.Value(); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
}

// TestHistogramBoundaries pins the inclusive-upper-bound (Prometheus
// `le`) semantics: an observation exactly at a bucket boundary counts
// into that bucket, not the next one.
func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("csfltr_test_latency_seconds", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 2, 2.000001, 5, 6} {
		h.Observe(v)
	}
	counts := h.BucketCounts()
	want := []int64{2, 1, 2, 1} // le=1: {0.5, 1}; le=2: {2}; le=5: {2.000001, 5}; +Inf: {6}
	if len(counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], want[i], counts)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-16.500001) > 1e-9 {
		t.Fatalf("Sum = %v, want 16.500001", h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("csfltr_test_q_seconds", "", []float64{1, 2, 5})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("quantile of empty histogram should be NaN")
	}
	for _, v := range []float64{0.5, 0.5, 0.5, 4, 10} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.8); got != 5 {
		t.Fatalf("p80 = %v, want 5", got)
	}
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Fatalf("p100 = %v, want +Inf", got)
	}
}

// TestConcurrentWriters hammers every metric kind from many goroutines;
// run under -race this is the registry's data-race regression test.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	r.EnableEvents(64)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			party := string(rune('A' + w%4))
			for i := 0; i < perWorker; i++ {
				r.Counter("csfltr_race_total", "", L("party", party)).Inc()
				r.Gauge("csfltr_race_inflight", "").Add(1)
				r.Histogram("csfltr_race_seconds", "", nil).Observe(float64(i) * 1e-6)
				sp := r.StartRootSpan("race", r.Histogram("csfltr_race_span_seconds", "", nil))
				sp.End()
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.WritePrometheus(new(strings.Builder))
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, p := range []string{"A", "B", "C", "D"} {
		total += r.Counter("csfltr_race_total", "", L("party", p)).Value()
	}
	if total != workers*perWorker {
		t.Fatalf("counter total = %d, want %d", total, workers*perWorker)
	}
	if got := r.Histogram("csfltr_race_seconds", "", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestSpanRecordsAndLogs(t *testing.T) {
	r := NewRegistry()
	r.EnableEvents(4)
	h := r.Histogram("csfltr_test_span_seconds", "", nil)
	sp := r.StartRootSpan("unit", h)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Fatalf("span duration %v, want >= 1ms", d)
	}
	if h.Count() != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count())
	}
	ev := r.Events()
	if len(ev) != 1 || ev[0].Name != "unit" || ev[0].DurationNanos < int64(time.Millisecond) {
		t.Fatalf("unexpected event log %+v", ev)
	}
	// Ring buffer keeps only the newest `capacity` events.
	for i := 0; i < 10; i++ {
		sp := r.StartRootSpan("later", nil)
		sp.End()
	}
	ev = r.Events()
	if len(ev) != 4 {
		t.Fatalf("event ring length = %d, want 4", len(ev))
	}
	for _, e := range ev {
		if e.Name != "later" {
			t.Fatalf("old event survived ring overwrite: %+v", e)
		}
	}
}

func TestZeroSpanIsNoop(t *testing.T) {
	var sp Span
	if d := sp.End(); d != 0 {
		t.Fatalf("zero span End = %v, want 0", d)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("csfltr_server_relayed_bytes_total", "Relayed bytes.", L("party", "B"), L("op", "query")).Add(1024)
	r.Gauge("csfltr_http_in_flight_requests", "In-flight HTTP requests.").Set(2)
	h := r.Histogram("csfltr_http_request_duration_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE csfltr_server_relayed_bytes_total counter",
		`csfltr_server_relayed_bytes_total{op="query",party="B"} 1024`,
		"# TYPE csfltr_http_in_flight_requests gauge",
		"csfltr_http_in_flight_requests 2",
		"# TYPE csfltr_http_request_duration_seconds histogram",
		`csfltr_http_request_duration_seconds_bucket{le="0.1"} 1`,
		`csfltr_http_request_duration_seconds_bucket{le="1"} 2`,
		`csfltr_http_request_duration_seconds_bucket{le="+Inf"} 3`,
		"csfltr_http_request_duration_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("csfltr_a_total", "a").Add(7)
	h := r.Histogram("csfltr_b_seconds", "b", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	snap := r.Snapshot()
	if m := snap.Metric("csfltr_a_total"); m == nil || m.Series[0].Value != 7 {
		t.Fatalf("counter snapshot wrong: %+v", snap)
	}
	m := snap.Metric("csfltr_b_seconds")
	if m == nil || m.Series[0].Count != 2 {
		t.Fatalf("histogram snapshot wrong: %+v", snap)
	}
	// Cumulative buckets: le=1 -> 1, +Inf -> 2.
	if m.Series[0].Buckets[0].Count != 1 || m.Series[0].Buckets[1].Count != 2 {
		t.Fatalf("cumulative buckets wrong: %+v", m.Series[0].Buckets)
	}
	var b strings.Builder
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal([]byte(b.String()), &round); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), `"+Inf"`) {
		t.Fatalf("+Inf bucket not encoded as string:\n%s", b.String())
	}
}

func TestRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := RequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	var live float64 = 3
	g := r.GaugeFunc("csfltr_live", "view over live state", func() float64 { return live })
	if got := g.Value(); got != 3 {
		t.Fatalf("GaugeFunc value = %v, want 3", got)
	}
	// The callback is evaluated at observation time, so snapshots track
	// the backing state without pushes.
	live = 9
	snap := r.Snapshot()
	m := snap.Metric("csfltr_live")
	if m == nil || m.Series[0].Value != 9 {
		t.Fatalf("snapshot of callback gauge wrong: %+v", m)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "csfltr_live 9") {
		t.Fatalf("callback gauge missing from exposition:\n%s", b.String())
	}
	// Re-registration returns the existing series; the first callback
	// stays fixed.
	g2 := r.GaugeFunc("csfltr_live", "", func() float64 { return -1 })
	if g2 != g || g2.Value() != 9 {
		t.Fatalf("re-registration replaced the callback: %v", g2.Value())
	}
	// Labelled series are independent.
	a := r.GaugeFunc("csfltr_live_l", "", func() float64 { return 1 }, Label{"p", "a"})
	bb := r.GaugeFunc("csfltr_live_l", "", func() float64 { return 2 }, Label{"p", "b"})
	if a.Value() != 1 || bb.Value() != 2 {
		t.Fatalf("labelled callback gauges collided: %v %v", a.Value(), bb.Value())
	}
}

func TestGaugeFuncConflictsWithPlainGauge(t *testing.T) {
	r := NewRegistry()
	r.Gauge("csfltr_conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a callback gauge over a plain gauge did not panic")
		}
	}()
	r.GaugeFunc("csfltr_conflict", "", func() float64 { return 0 })
}

// TestRegistryHitAllocs: resolving a series that exists allocates
// nothing, for every kind and whatever order the labels come in.
func TestRegistryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	all := []Label{L("party", "B"), L("api", "rtk"), L("codec", "wire"), L("field", "body"), L("shard", "s1/r0")}
	r := NewRegistry()
	fn := func() float64 { return 1 }
	for _, n := range []int{0, 1, 3, 5} {
		given := append([]Label(nil), all[:n]...)
		for i := range given { // reversed: the registry sorts them
			given[i] = all[n-1-i]
		}
		r.Counter("c_total", "h", all[:n]...)
		r.Gauge("g", "h", all[:n]...)
		r.Histogram("h_seconds", "h", nil, all[:n]...)
		r.GaugeFunc("f", "h", fn, all[:n]...)
		for kind, hit := range map[string]func(){
			"counter":   func() { r.Counter("c_total", "h", given...).Inc() },
			"gauge":     func() { r.Gauge("g", "h", given...).Inc() },
			"histogram": func() { r.Histogram("h_seconds", "h", nil, given...).Observe(1) },
			"gaugefunc": func() { r.GaugeFunc("f", "h", fn, given...) },
		} {
			if a := testing.AllocsPerRun(100, hit); a != 0 {
				t.Errorf("%s hit with %d labels: %v allocs, want 0", kind, n, a)
			}
		}
	}
	// Labels written out at the call site, as callers do.
	literal := func() {
		r.Counter("c_total", "h", L("codec", "wire"), L("party", "B"), L("api", "rtk")).Inc()
	}
	if a := testing.AllocsPerRun(100, literal); a != 0 {
		t.Errorf("counter hit with literal labels: %v allocs, want 0", a)
	}
}

// TestWalk: a walk visits every series of one family with its sorted
// labels, and nothing of another family.
func TestWalk(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h", L("z", "1"), L("b", "2")).Add(3)
	r.Counter("a_total", "h", L("b", "3")).Add(4)
	r.Counter("other_total", "h").Add(100)
	var sum int64
	var keys []string
	r.Walk("a_total", func(labels []Label, s any) {
		sum += s.(*Counter).Value()
		if len(labels) == 2 {
			keys = append(keys, labels[0].Key, labels[1].Key)
		}
	})
	if sum != 7 || strings.Join(keys, ",") != "b,z" {
		t.Fatalf("walk summed %d over keys %v, want 7 over [b z]", sum, keys)
	}
	r.Walk("absent_total", func([]Label, any) { t.Fatal("walked an absent family") })
}

// TestSeriesBeyondStackBuffers: a label set larger than the lookup's
// stack buffers (more labels, a longer signature) still resolves to one
// series whatever order its labels come in, and keeps them sorted.
func TestSeriesBeyondStackBuffers(t *testing.T) {
	var labels []Label
	for k := 'j'; k >= 'a'; k-- { // 10 labels, a signature of ~250 bytes
		labels = append(labels, L(string(k), strings.Repeat(string(k), 20)))
	}
	if len(labels) <= stackLabels {
		t.Fatalf("%d labels fit the stack buffer of %d", len(labels), stackLabels)
	}
	r := NewRegistry()
	c := r.Counter("wide_total", "h", labels...)
	reversed := make([]Label, len(labels))
	for i, l := range labels {
		reversed[len(labels)-1-i] = l
	}
	if r.Counter("wide_total", "h", reversed...) != c {
		t.Fatal("a wide label set given in another order resolved to another series")
	}
	other := append([]Label(nil), labels...)
	other[0] = L("j", "x")
	if r.Counter("wide_total", "h", other...) == c {
		t.Fatal("wide label sets differing in one value shared a series")
	}
	found := false
	r.Walk("wide_total", func(got []Label, s any) {
		if s != c {
			return
		}
		found = true
		for i := 1; i < len(got); i++ {
			if got[i-1].Key >= got[i].Key {
				t.Fatalf("series labels not sorted: %v", got)
			}
		}
	})
	if !found {
		t.Fatal("the walk did not visit the wide series")
	}
}

// TestSeriesOwnsItsLabels: a new series keeps its own copy of the labels
// it was created with, so a caller reusing its label slice changes
// neither the series' labels nor its identity.
func TestSeriesOwnsItsLabels(t *testing.T) {
	r := NewRegistry()
	labels := []Label{L("party", "B"), L("api", "rtk")}
	c := r.Counter("owned_total", "h", labels...)
	labels[0], labels[1] = L("party", "C"), L("api", "tf")
	r.Walk("owned_total", func(got []Label, _ any) {
		if len(got) != 2 || got[0] != L("api", "rtk") || got[1] != L("party", "B") {
			t.Fatalf("series labels = %v, want [api=rtk party=B]", got)
		}
	})
	if r.Counter("owned_total", "h", L("api", "rtk"), L("party", "B")) != c {
		t.Fatal("the original labels no longer resolve to the series")
	}
}
