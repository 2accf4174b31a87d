// Package cli holds the tiny exit protocol shared by the command-line
// entry points (every command under cmd/ except datagen): run() returns an
// error and main maps it to the conventional exit code — 0 on success or
// -h/-help, 2 on usage errors, 1 on runtime failures.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

// ErrUsage marks a bad invocation whose explanation has already been
// written to stderr (by the FlagSet or by the command itself).
var ErrUsage = errors.New("usage error")

// ExitCode maps a run error to the process exit code.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrUsage):
		return 2
	default:
		return 1
	}
}

// Exit prints err prefixed with the command name — unless it is a usage or
// help outcome, which was already explained — and terminates the process
// with the matching exit code.
func Exit(cmd string, err error) {
	if err != nil && !errors.Is(err, ErrUsage) && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, cmd+":", err)
	}
	os.Exit(ExitCode(err))
}
