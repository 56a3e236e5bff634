// Package telemetry is the dependency-free observability substrate of
// the CS-F-LTR system: a concurrency-safe metrics registry (counters,
// gauges, fixed-bucket histograms, labeled families), lightweight
// protocol spans that time an operation into a histogram and optionally
// append to a structured event log, and exposition in two formats —
// Prometheus text (for scrapers) and a JSON snapshot (for tests,
// benchmarks and the expvar-style /debug/vars route).
//
// The paper's headline claims are cost claims: CS-F-LTR trades a bounded
// accuracy loss for orders-of-magnitude less computation and
// communication. This package exists so the repo can *measure* where
// time and bytes go per protocol round instead of asserting it.
//
// Naming convention: csfltr_<subsystem>_<name>_<unit>, e.g.
// csfltr_server_relayed_bytes_total or
// csfltr_http_request_duration_seconds.
//
// Everything here is safe for concurrent use. Metric handles returned by
// Counter/Gauge/Histogram are stable: asking for the same name and label
// set twice returns the same handle, so callers may either cache handles
// on hot paths or re-resolve per call on cold ones.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricType discriminates the three family kinds.
type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

// String returns the Prometheus TYPE keyword.
func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	case histogramType:
		return "histogram"
	default:
		return "untyped"
	}
}

// family groups every series sharing one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64 // histogram upper bounds, nil otherwise

	series map[string]any // label signature -> *Counter/*Gauge/*Histogram
}

// Registry holds metric families and the optional event log. The zero
// value is not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	events   *eventLog   // nil until EnableEvents
	traces   *traceStore // nil until EnableTracing
	slow     *slowLog    // nil until EnableSlowLog
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// signature builds the canonical series key from sorted labels.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte('\xff')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns a sorted copy of labels.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup resolves (or creates) the family for name, enforcing that every
// series under one name agrees on type and help.
func (r *Registry) lookup(name, help string, typ metricType, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets,
			series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", name, typ, f.typ))
	}
	return f
}

// Counter returns the counter series for name and labels, creating it on
// first use. Counters only go up (Add panics on negative deltas); Reset
// exists for experiment reruns.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	labels = sortLabels(labels)
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, counterType, nil)
	if c, ok := f.series[sig]; ok {
		return c.(*Counter)
	}
	c := &Counter{labels: labels}
	f.series[sig] = c
	return c
}

// Gauge returns the gauge series for name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	labels = sortLabels(labels)
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, gaugeType, nil)
	if g, ok := f.series[sig]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	g.labels = labels
	f.series[sig] = g
	return g
}

// Histogram returns the histogram series for name and labels, creating
// it on first use. buckets are inclusive upper bounds in ascending order
// (an implicit +Inf bucket is always appended); nil selects
// LatencyBuckets. The first registration of a name fixes its buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	labels = sortLabels(labels)
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if buckets == nil {
		buckets = LatencyBuckets
	}
	f := r.lookup(name, help, histogramType, buckets)
	if h, ok := f.series[sig]; ok {
		return h.(*Histogram)
	}
	h := newHistogram(f.buckets, labels)
	f.series[sig] = h
	return h
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	labels []Label
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: counter decrease")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter (experiment reruns only; Prometheus scrapers
// see a counter reset, which rate() handles).
func (c *Counter) Reset() { c.v.Store(0) }

// GaugeFunc returns the callback-gauge series for name and labels,
// creating it on first use. The callback is evaluated at observation
// time (snapshot / Prometheus scrape), so the exported value is always
// current without the owner having to push updates — the right shape
// for values that are views over live state (cache occupancy, remaining
// privacy budget). fn must be safe for concurrent use; the first
// registration of a series fixes its callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) *GaugeFunc {
	labels = sortLabels(labels)
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, gaugeType, nil)
	if g, ok := f.series[sig]; ok {
		gf, isFunc := g.(*GaugeFunc)
		if !isFunc {
			panic(fmt.Sprintf("telemetry: gauge %q re-registered as a callback gauge", name))
		}
		return gf
	}
	g := &GaugeFunc{labels: labels, fn: fn}
	f.series[sig] = g
	return g
}

// Gauge is an instantaneous float64 metric.
type Gauge struct {
	labels []Label
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta (negative deltas decrease).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeFunc is a gauge whose value is computed by a callback at
// observation time. It carries no state of its own, so Registry.Reset
// leaves it untouched.
type GaugeFunc struct {
	labels []Label
	fn     func() float64
}

// Value evaluates the callback (0 if nil).
func (g *GaugeFunc) Value() float64 {
	if g.fn == nil {
		return 0
	}
	return g.fn()
}

// requestIDPrefix is a per-process random prefix so request IDs from
// different silos never collide.
var requestIDPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

// requestIDCounter numbers requests within the process.
var requestIDCounter atomic.Uint64

// RequestID returns a new process-unique request identifier of the form
// <random-prefix>-<sequence>, used for request-ID propagation across the
// HTTP transport.
func RequestID() string {
	return fmt.Sprintf("%s-%08x", requestIDPrefix, requestIDCounter.Add(1))
}
