package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"
)

// This file reads a process's CPU time and peak resident set from procfs —
// the benchmark measures flownetd from outside, so these are the only
// process-level meters it has.

// errProcUnsupported reports that this platform has no procfs. A caller
// must surface it rather than report a zero.
var errProcUnsupported = errors.New("per-process CPU and memory need Linux procfs (/proc/<pid>/{stat,status}); unsupported on this platform")

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux port Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStatCPU extracts utime+stime from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	fields := bytes.Fields(stat[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err1 := strconv.ParseInt(string(fields[11]), 10, 64)
	stime, err2 := strconv.ParseInt(string(fields[12]), 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("proc stat: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseProcStatusKB extracts one "Key:   123 kB" line from the contents of
// /proc/<pid>/status and returns its value in kB.
func parseProcStatusKB(status []byte, key string) (int64, error) {
	for _, line := range bytes.Split(status, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

func readProc(pid int, file string) ([]byte, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if errors.Is(err, os.ErrNotExist) {
		if _, serr := os.Stat("/proc/self/stat"); serr != nil {
			return nil, errProcUnsupported
		}
	}
	return b, err
}

// procCPU returns the CPU time (user+system) pid has consumed so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := readProc(pid, "stat")
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(b)
}

// procPeakRSSMB returns pid's peak resident set size (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := readProc(pid, "status")
	if err != nil {
		return 0, err
	}
	kb, err := parseProcStatusKB(b, "VmHWM")
	return float64(kb) / 1024, err
}
