//go:build race

package wire

// raceEnabled reports whether the test binary was built with -race,
// under which sync.Pool drops a share of Puts and allocation ceilings
// on pooled paths do not hold.
const raceEnabled = true
