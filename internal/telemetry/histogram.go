package telemetry

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the default histogram bucket layout: inclusive upper
// bounds in seconds spanning 25µs (an in-process sketch lookup) to 10s
// (a pathological cross-silo round trip). Chosen once, fixed forever, so
// dashboards of different runs line up.
var LatencyBuckets = []float64{
	25e-6, 100e-6, 250e-6,
	1e-3, 2.5e-3, 10e-3, 25e-3, 100e-3, 250e-3,
	1, 2.5, 10,
}

// Histogram counts observations into fixed buckets with inclusive upper
// bounds (Prometheus `le` semantics: a value equal to a bound lands in
// that bound's bucket). An implicit +Inf bucket catches the rest. Safe
// for concurrent use; Observe is lock-free.
type Histogram struct {
	labels  []Label
	bounds  []float64 // ascending, excluding +Inf
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64

	// exemplars holds one most-recent traced observation per bucket,
	// linking histogram tails back to the trace that produced them.
	// Lazily allocated on the first ObserveTraced.
	exMu      sync.Mutex
	exemplars []Exemplar
}

// Exemplar is one traced observation pinned to a histogram bucket.
type Exemplar struct {
	UpperBound float64 `json:"-"` // bucket bound; +Inf for the overflow bucket
	Value      float64 `json:"value"`
	TraceID    string  `json:"trace_id"`
	UnixNano   int64   `json:"unix_nano"`
}

// MarshalJSON renders the bucket bound alongside the sample, encoding
// +Inf as the string "+Inf" (JSON has no infinity literal).
func (e Exemplar) MarshalJSON() ([]byte, error) {
	type exemplar struct {
		UpperBound any     `json:"le"`
		Value      float64 `json:"value"`
		TraceID    string  `json:"trace_id"`
		UnixNano   int64   `json:"unix_nano"`
	}
	ub := any(e.UpperBound)
	if math.IsInf(e.UpperBound, 1) {
		ub = "+Inf"
	}
	return json.Marshal(exemplar{UpperBound: ub, Value: e.Value, TraceID: e.TraceID, UnixNano: e.UnixNano})
}

// newHistogram builds a histogram series; bounds must be ascending.
func newHistogram(bounds []float64, labels []Label) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		labels: labels,
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v — the inclusive-upper-bound bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveTraced records one value and pins it as the exemplar of the
// bucket it lands in, so tail buckets always point at a recent trace ID
// that can be pulled up in full from the trace store.
func (h *Histogram) ObserveTraced(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	ub := math.Inf(1)
	if i < len(h.bounds) {
		ub = h.bounds[i]
	}
	h.exMu.Lock()
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.counts))
	}
	h.exemplars[i] = Exemplar{UpperBound: ub, Value: v, TraceID: traceID, UnixNano: time.Now().UnixNano()}
	h.exMu.Unlock()
}

// Exemplars returns the buckets' pinned traced observations, ascending
// by bucket bound; buckets without one are skipped.
func (h *Histogram) Exemplars() []Exemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	var out []Exemplar
	for _, e := range h.exemplars {
		if e.TraceID != "" {
			out = append(out, e)
		}
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the finite bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the smallest bucket bound at which the cumulative count reaches
// q*Count. Returns NaN when empty and +Inf when the quantile lies in the
// overflow bucket.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || math.IsNaN(q) || q <= 0 || q > 1 {
		return math.NaN()
	}
	target := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}
