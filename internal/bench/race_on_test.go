//go:build race

package bench

// raceEnabled reports a -race build. Under the race detector sync.Pool
// deliberately drops a quarter of what is Put, so the extraction scratch is
// reallocated at random and steady-state allocation counts mean nothing.
const raceEnabled = true
