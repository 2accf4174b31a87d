//go:build race

package tin

// raceEnabled reports a -race build, where every memory access is
// instrumented: single-goroutine property tests run a tenth of their
// inputs there, since the detector has nothing to find in them.
const raceEnabled = true
