// Package chaos is a deterministic, seeded fault-injection layer for the
// federation's relay paths. A production cross-silo federation must keep
// answering queries when silos are slow, flaky, partitioned or dead; this
// package makes those regimes reproducible so the resilience machinery
// (package resilience, the degraded-mode federated search) can be proven
// under test instead of asserted.
//
// Every party gets a Profile: a base link latency plus jitter, an error
// rate, a timeout rate, and hard failure modes (Down, Partitioned). Fault
// decisions are a pure function of (injector seed, party, op, call
// content, attempt number) — not of wall-clock time, goroutine
// scheduling or map order — so a run replays bit-identically from a
// single seed: the same query sequence experiences the same faults no
// matter how the fan-out is scheduled, and a retry of the same call is a
// fresh (but still deterministic) draw.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Fault kinds, used as the bounded `kind` metric label and carried by
// injected errors.
const (
	KindError     = "error"     // transient transport error
	KindTimeout   = "timeout"   // call timed out in flight
	KindDown      = "down"      // party process is dead
	KindPartition = "partition" // party unreachable (network partition)
)

// ErrInjected is the base class of every injected fault;
// errors.Is(err, chaos.ErrInjected) identifies chaos-made failures.
var ErrInjected = errors.New("chaos: injected fault")

// Fault is one injected failure. It unwraps to ErrInjected.
type Fault struct {
	Party string
	Op    string
	Kind  string
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("chaos: injected %s fault on %s call to party %q", f.Kind, f.Op, f.Party)
}

// Is reports membership in the ErrInjected class.
func (f *Fault) Is(target error) bool { return target == ErrInjected }

// FaultKind returns the injected fault kind of err ("" if err is not an
// injected fault).
func FaultKind(err error) string {
	var f *Fault
	if errors.As(err, &f) {
		return f.Kind
	}
	return ""
}

// Profile is one party's fault configuration. The zero Profile is a
// perfect link: no latency, no faults.
type Profile struct {
	// Latency is the fixed simulated round trip added to every call.
	Latency time.Duration
	// Jitter is the maximum extra latency; the realized jitter is a
	// deterministic draw in [0, Jitter) per call.
	Jitter time.Duration
	// ErrorRate is the probability in [0, 1] that a call fails with a
	// transient error instead of reaching the party.
	ErrorRate float64
	// TimeoutRate is the probability in [0, 1] that a call is dropped
	// in flight and surfaces as a timeout.
	TimeoutRate float64
	// Down simulates a dead silo: every call fails.
	Down bool
	// Partitioned simulates a network partition: every call fails as
	// unreachable.
	Partitioned bool
}

// zero reports whether the profile injects nothing at all.
func (p Profile) zero() bool { return p == Profile{} }

// deterministic reports whether per-call draws are needed.
func (p Profile) needsDraws() bool {
	return p.Jitter > 0 || p.ErrorRate > 0 || p.TimeoutRate > 0
}

// attemptKey identifies one logical call for attempt numbering: retries
// of the same (party, op, content) advance the attempt counter, so a
// retry is a fresh deterministic draw rather than a guaranteed repeat of
// the first attempt's fate.
type attemptKey struct {
	party   string
	op      string
	content uint64
}

// Injector holds the per-party fault profiles and the seed that makes
// every decision reproducible. Safe for concurrent use.
type Injector struct {
	seed uint64

	mu       sync.RWMutex
	def      Profile
	profiles map[string]Profile
	attempts map[attemptKey]uint64
	onFault  func(party, kind string)

	// sleep is swappable so tests can assert latency without waiting.
	sleep func(time.Duration)
}

// New creates an injector with no profiles; until a profile is set it is
// a transparent no-op.
func New(seed uint64) *Injector {
	return &Injector{
		seed:     seed,
		profiles: make(map[string]Profile),
		attempts: make(map[attemptKey]uint64),
		sleep:    time.Sleep,
	}
}

// SetProfile installs (or replaces) one party's fault profile.
func (in *Injector) SetProfile(party string, p Profile) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.profiles[party] = p
}

// SetDefault installs the profile applied to parties without an explicit
// one — e.g. a uniform simulated WAN round trip for the whole roster.
func (in *Injector) SetDefault(p Profile) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.def = p
}

// Default returns the default profile.
func (in *Injector) Default() Profile {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.def
}

// PartyProfile returns the profile explicitly set for party (zero if
// none), without falling back to the default.
func (in *Injector) PartyProfile(party string) Profile {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.profiles[party]
}

// ProfileFor returns the effective profile for party: the explicit one
// if set, the default otherwise.
func (in *Injector) ProfileFor(party string) Profile {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if p, ok := in.profiles[party]; ok {
		return p
	}
	return in.def
}

// ResetAttempts forgets the per-call attempt counters, so the next run
// of the same query sequence replays the same faults from the start.
func (in *Injector) ResetAttempts() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.attempts = make(map[attemptKey]uint64)
}

// SetOnFault installs a hook invoked for every injected fault (e.g. the
// server's chaos fault counters). The hook must be fast and must not
// call back into the injector.
func (in *Injector) SetOnFault(fn func(party, kind string)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.onFault = fn
}

// setSleep swaps the latency sleeper (tests).
func (in *Injector) setSleep(fn func(time.Duration)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sleep = fn
}

// Intercept applies party's profile to one call: it sleeps the simulated
// link latency and returns the injected fault, if any. op names the call
// ("rtk", "tf", "docmeta", ...); content identifies the request payload
// (e.g. a hash of the query columns) so that the fault decision depends
// on the logical call, not on arrival order — this is what makes runs
// replay bit-identically under a concurrent fan-out.
func (in *Injector) Intercept(party, op string, content uint64) error {
	in.mu.RLock()
	p, ok := in.profiles[party]
	if !ok {
		p = in.def
	}
	sleep, onFault := in.sleep, in.onFault
	in.mu.RUnlock()
	if p.zero() {
		return nil
	}

	var h uint64
	if p.needsDraws() {
		h = in.callHash(party, op, content)
	}
	lat := p.Latency
	if p.Jitter > 0 {
		lat += time.Duration(float64(p.Jitter) * unitFloat(splitmix64(h+1)))
	}
	if lat > 0 {
		sleep(lat)
	}

	kind := ""
	switch {
	case p.Down:
		kind = KindDown
	case p.Partitioned:
		kind = KindPartition
	case p.ErrorRate > 0 && unitFloat(splitmix64(h+2)) < p.ErrorRate:
		kind = KindError
	case p.TimeoutRate > 0 && unitFloat(splitmix64(h+3)) < p.TimeoutRate:
		kind = KindTimeout
	}
	if kind == "" {
		return nil
	}
	if onFault != nil {
		onFault(party, kind)
	}
	return &Fault{Party: party, Op: op, Kind: kind}
}

// callHash mixes the call identity and its attempt number into one
// deterministic 64-bit value. The attempt counter advances under the
// lock, so the n-th occurrence of a logical call always gets draw n.
func (in *Injector) callHash(party, op string, content uint64) uint64 {
	k := attemptKey{party: party, op: op, content: content}
	in.mu.Lock()
	n := in.attempts[k]
	in.attempts[k] = n + 1
	in.mu.Unlock()
	h := in.seed
	h = mixString(h, party)
	h = mixString(h, op)
	h = splitmix64(h ^ content)
	return splitmix64(h ^ n)
}

// mixString folds s into h FNV-1a style, then scrambles.
func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return splitmix64(h)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed PRF step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a 64-bit value to [0, 1).
func unitFloat(x uint64) float64 { return float64(x>>11) / float64(1<<53) }
