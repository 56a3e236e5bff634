package federation

import (
	"errors"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/resilience"
	"csfltr/internal/telemetry"
)

// SetResiliencePolicy installs the retry/deadline/breaker policy used
// by federated fan-outs from this federation. Call it before serving
// queries: existing breakers keep the policy they were created with.
// The zero value of a Federation uses resilience.DefaultPolicy with the
// federation's permanent-error classifier.
func (f *Federation) SetResiliencePolicy(p resilience.Policy) {
	f.resMu.Lock()
	defer f.resMu.Unlock()
	if p.Retryable == nil {
		p.Retryable = Retryable
	}
	f.policy = &p
}

// ResiliencePolicy returns the effective policy.
func (f *Federation) ResiliencePolicy() resilience.Policy {
	f.resMu.Lock()
	defer f.resMu.Unlock()
	return f.policyLocked()
}

// policyLocked resolves the policy default; callers hold resMu.
func (f *Federation) policyLocked() resilience.Policy {
	if f.policy == nil {
		p := resilience.DefaultPolicy()
		p.Retryable = Retryable
		f.policy = &p
	}
	return *f.policy
}

// breakerFor returns (creating on first use) the circuit breaker
// guarding calls to one party, wired to publish its state into the
// breaker-state gauge (0 closed, 1 half-open, 2 open).
func (f *Federation) breakerFor(party string) *resilience.Breaker {
	f.resMu.Lock()
	defer f.resMu.Unlock()
	if f.breakers == nil {
		f.breakers = make(map[string]*resilience.Breaker)
	}
	b, ok := f.breakers[party]
	if !ok {
		b = resilience.NewBreaker(f.policyLocked())
		g := f.Server.metrics().gauge(MetricBreakerState, telemetry.L("party", party))
		g.Set(float64(resilience.Closed))
		b.OnChange(func(s resilience.State) { g.Set(float64(s)) })
		f.breakers[party] = b
	}
	return b
}

// BreakerState reports the breaker position for one party (Closed if no
// call has created the breaker yet).
func (f *Federation) BreakerState(party string) resilience.State {
	f.resMu.Lock()
	b := f.breakers[party]
	f.resMu.Unlock()
	if b == nil {
		return resilience.Closed
	}
	return b.State()
}

// permanentErrors are the protocol errors that can never succeed on a
// retry: malformed queries, unknown documents or parties, exhausted
// privacy budget. The gateway answers none of them with a 5xx (see
// statusFor).
var permanentErrors = []error{
	core.ErrBadParams,
	core.ErrBadQuery,
	core.ErrUnknownDoc,
	core.ErrNoSketches,
	dp.ErrBudgetExceeded,
	ErrUnknownParty,
	ErrUnknownField,
	ErrSelfQuery,
}

// Retryable is the federation's default retry classifier: the permanent
// protocol errors are not; everything else (injected faults, transport
// errors, deadline overruns) is worth retrying.
func Retryable(err error) bool {
	for _, permanent := range permanentErrors {
		if errors.Is(err, permanent) {
			return false
		}
	}
	return true
}

// callSeed derives the deterministic backoff-jitter seed for one
// logical call from the federation hash seed and the task identity, so
// retry pacing is reproducible for a fixed federation and query
// sequence.
func (f *Federation) callSeed(party string, term uint64) uint64 {
	h := f.HashSeed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(party); i++ {
		h ^= uint64(party[i])
		h *= 0x100000001b3
	}
	return h ^ term
}
