//go:build !race

package wire

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
