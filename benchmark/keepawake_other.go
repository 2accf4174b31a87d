//go:build !linux

package main

import "errors"

// keepAwakeMain needs Linux's SCHED_IDLE class; elsewhere the helper exits
// at once and the run goes on without it (see env.keepAwake).
func keepAwakeMain() {
	fail(1, errors.New("keep-awake: needs Linux (SCHED_IDLE)"))
}
