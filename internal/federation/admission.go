package federation

import (
	"context"
	"sync/atomic"
	"time"

	"csfltr/internal/telemetry"
)

// Gateway admission control (see DESIGN.md §16).
//
// The /v1/search route runs a whole federated fan-out per request, so
// under sustained overload an unbounded gateway converts excess QPS
// into unbounded queueing — every request eventually answers, seconds
// late, and tail latency explodes. Admission control bounds the work
// the gateway accepts instead: at most MaxInFlight searches execute
// concurrently, at most MaxQueue more wait for a slot, and a waiter
// that cannot start within QueueTimeout is shed. Shed requests get an
// immediate 429 with a Retry-After hint, so under overload the gateway
// degrades to a bounded-latency service that answers what it can and
// refuses the rest quickly — never to a slow service that answers
// everything late.

// Admission metric families.
const (
	// MetricAdmissionShed counts requests refused by admission control,
	// labeled by reason ("queue_full": the wait queue was at capacity on
	// arrival; "deadline": the request queued but no slot freed within
	// QueueTimeout; "canceled": the client gave up while queued).
	MetricAdmissionShed = "csfltr_http_admission_shed_total"
	// MetricAdmissionQueueDepth is the number of requests currently
	// waiting for an execution slot.
	MetricAdmissionQueueDepth = "csfltr_http_admission_queue_depth"
	// MetricAdmissionInFlight is the number of admitted searches
	// currently executing.
	MetricAdmissionInFlight = "csfltr_http_admission_in_flight"
)

// Shed reason label values (bounded).
const (
	shedQueueFull = "queue_full"
	shedDeadline  = "deadline"
	shedCanceled  = "canceled"
)

// Admission control defaults: a small execution bound (each search is
// itself a parallel fan-out), a queue a few times deeper, and a wait
// deadline well under a client timeout.
const (
	DefaultMaxInFlight  = 4
	DefaultMaxQueue     = 16
	DefaultQueueTimeout = 250 * time.Millisecond
	DefaultRetryAfter   = time.Second
)

// AdmissionConfig bounds the gateway's concurrent search work. Zero
// fields resolve to the defaults above.
type AdmissionConfig struct {
	// MaxInFlight is the number of searches executing concurrently.
	MaxInFlight int
	// MaxQueue is the number of requests allowed to wait for a slot;
	// arrivals beyond it are shed immediately.
	MaxQueue int
	// QueueTimeout sheds a queued request that could not start in time.
	QueueTimeout time.Duration
}

// withDefaults resolves zero fields.
func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = DefaultQueueTimeout
	}
	return c
}

// admission is the controller: a slot semaphore plus a bounded,
// deadline-shed wait queue, with its occupancy exported as gauges.
type admission struct {
	cfg    AdmissionConfig
	slots  chan struct{}
	queued atomic.Int64

	inFlight     *telemetry.Gauge
	queueDepth   *telemetry.Gauge
	shedFull     *telemetry.Counter
	shedDeadline *telemetry.Counter
	shedCanceled *telemetry.Counter
}

// SetAdmission installs admission control on the gateway's search
// route. Call before serving traffic; calling again replaces the
// controller (occupancy restarts from zero).
func (s *Server) SetAdmission(cfg AdmissionConfig) {
	cfg = cfg.withDefaults()
	reg := s.Metrics()
	a := &admission{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxInFlight),
		inFlight: reg.Gauge(MetricAdmissionInFlight,
			"Admitted gateway searches currently executing."),
		queueDepth: reg.Gauge(MetricAdmissionQueueDepth,
			"Gateway search requests waiting for an execution slot."),
		shedFull: reg.Counter(MetricAdmissionShed,
			"Gateway search requests refused by admission control.",
			telemetry.L("reason", shedQueueFull)),
		shedDeadline: reg.Counter(MetricAdmissionShed,
			"Gateway search requests refused by admission control.",
			telemetry.L("reason", shedDeadline)),
		shedCanceled: reg.Counter(MetricAdmissionShed,
			"Gateway search requests refused by admission control.",
			telemetry.L("reason", shedCanceled)),
	}
	s.admission.Store(a)
}

// admit tries to claim an execution slot, waiting in the bounded queue
// until the deadline or until ctx is done — a client that disconnects
// while queued gives its queue position back and never runs a search
// (which would spend epsilon on an answer nobody reads). On success it
// returns the release func; on shed it returns the bounded reason label
// (the shed counter is already incremented).
func (a *admission) admit(ctx context.Context) (release func(), ok bool, reason string) {
	select {
	case a.slots <- struct{}{}:
		a.inFlight.Inc()
		return a.release, true, ""
	default:
	}
	if a.queued.Add(1) > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		a.shedFull.Inc()
		return nil, false, shedQueueFull
	}
	a.queueDepth.Inc()
	defer func() {
		a.queued.Add(-1)
		a.queueDepth.Dec()
	}()
	t := time.NewTimer(a.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		a.inFlight.Inc()
		return a.release, true, ""
	case <-t.C:
		a.shedDeadline.Inc()
		return nil, false, shedDeadline
	case <-ctx.Done():
		a.shedCanceled.Inc()
		return nil, false, shedCanceled
	}
}

// release frees the slot an admitted request held.
func (a *admission) release() {
	<-a.slots
	a.inFlight.Dec()
}

// gatewaySearcher is the federated-search entry point the /v1/search
// route calls — SearchTraced of the federation that attached itself via
// setSearcher.
type gatewaySearcher func(from string, terms []uint64, k int) (*SearchResult, string, error)

// setSearcher attaches a federation's search entry point to the
// gateway (done by the Federation constructors).
func (s *Server) setSearcher(fn gatewaySearcher) {
	s.searcher.Store(&fn)
}
