// Package leakcheck is the runtime counterpart of the csfltr-vet
// concurrency analyzers: a snapshot-diff goroutine-leak detector wired
// into TestMain. The static check (lockhold) catches the
// blocking patterns that *cause* stuck goroutines; leakcheck catches
// the stuck goroutines themselves — a fan-out worker still parked on a
// result channel, a singleflight waiter nobody signalled, an abandoned
// resilience attempt whose buffered channel was never drained.
//
// Protocol: TestMain snapshots the live goroutines before m.Run, runs
// the tests, then diffs. Goroutines present after the run but not in
// the baseline are leak candidates; because legitimately short-lived
// goroutines (timed-out resilience attempts completing into their
// buffered channels, http idle-connection teardown) may still be
// draining at that instant, the diff is retried with backoff for a
// grace period and only goroutines that survive it are reported. The
// test binary then fails (exit 1) with the full stack of every leaked
// goroutine, so `go test -race ./...` turns a leak into a red build.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// maxStackBytes bounds the all-goroutine stack snapshot.
const maxStackBytes = 1 << 22

// defaultGrace is how long the final diff waits for in-flight
// goroutines to drain before declaring them leaked.
const defaultGrace = 2 * time.Second

// Goroutine is one parsed entry of a runtime stack dump.
type Goroutine struct {
	ID    int
	State string // "chan receive", "select", "IO wait", ...
	Stack string // full stack block, header included
}

// ignored reports whether a goroutine is infrastructure that outlives
// any test on purpose: the test driver itself, runtime helpers, signal
// plumbing, and this package's own machinery.
func ignored(g Goroutine) bool {
	for _, marker := range []string{
		"testing.(*T).Run",
		"testing.(*M).",
		"testing.runTests",
		"testing.RunTests",
		"testing.Main",
		"runtime.goexit0",
		"runtime.gc",
		"runtime.forcegchelper",
		"runtime.bgsweep",
		"runtime.bgscavenge",
		"runtime.runfinq",
		"runtime.ReadTrace",
		"os/signal.signal_recv",
		"os/signal.loop",
		"leakcheck.Snapshot",
		"leakcheck.Main",
	} {
		if strings.Contains(g.Stack, marker) {
			return true
		}
	}
	return false
}

// Snapshot captures every live goroutine except ignored infrastructure.
func Snapshot() []Goroutine {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		if len(buf) >= maxStackBytes {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []Goroutine
	for _, block := range strings.Split(string(buf), "\n\n") {
		g, ok := parseGoroutine(block)
		if !ok || ignored(g) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// parseGoroutine decodes one "goroutine N [state]:" block.
func parseGoroutine(block string) (Goroutine, bool) {
	block = strings.TrimSpace(block)
	rest, ok := strings.CutPrefix(block, "goroutine ")
	if !ok {
		return Goroutine{}, false
	}
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return Goroutine{}, false
	}
	id, err := strconv.Atoi(rest[:sp])
	if err != nil {
		return Goroutine{}, false
	}
	state := ""
	if open := strings.IndexByte(rest, '['); open >= 0 {
		if end := strings.IndexByte(rest[open:], ']'); end > 0 {
			state = rest[open+1 : open+end]
		}
	}
	return Goroutine{ID: id, State: state, Stack: block}, true
}

// Leaked returns the goroutines alive now that were not in baseline,
// retrying with backoff until grace expires so legitimately-draining
// goroutines (timed-out attempts, connection teardown) don't count.
func Leaked(baseline []Goroutine, grace time.Duration) []Goroutine {
	base := make(map[int]bool, len(baseline))
	for _, g := range baseline {
		base[g.ID] = true
	}
	deadline := time.Now().Add(grace)
	wait := time.Millisecond
	for {
		var leaked []Goroutine
		for _, g := range Snapshot() {
			if !base[g.ID] {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(wait)
		if wait < 100*time.Millisecond {
			wait *= 2
		}
	}
}

// Main is the TestMain body: snapshot, run, diff, fail on leaks.
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
func Main(m *testing.M) {
	os.Exit(run(m))
}

// run is Main without the os.Exit, for leakcheck's own tests.
func run(m *testing.M) int {
	baseline := Snapshot()
	code := m.Run()
	if code != 0 {
		return code
	}
	leaked := Leaked(baseline, defaultGrace)
	if len(leaked) == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) leaked by this package's tests:\n\n", len(leaked))
	for _, g := range leaked {
		fmt.Fprintf(os.Stderr, "%s\n\n", g.Stack)
	}
	return 1
}
