//go:build !race

package repro

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
