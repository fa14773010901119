//go:build race

package congest

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
