//go:build race

package federation

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
