//go:build race

package telemetry

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
