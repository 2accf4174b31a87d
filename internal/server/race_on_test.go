//go:build race

package server

// raceEnabled reports a -race build, where every atomic load is
// instrumented and timing budgets mean nothing.
const raceEnabled = true
