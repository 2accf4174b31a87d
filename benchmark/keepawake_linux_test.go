package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// The helper must never compete with what is measured: one spinner per
// allowed processor, each in the idle scheduling class, and no thread of
// any other class burning time. The test re-executes itself as the helper.
func TestKeepAwakeSpinsOnlyInTheIdleClass(t *testing.T) {
	const envKey = "FLOWBENCH_TEST_KEEP_AWAKE"
	if os.Getenv(envKey) == "1" {
		keepAwakeMain() // returns only when the parent is gone
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestKeepAwakeSpinsOnlyInTheIdleClass$")
	cmd.Env = append(os.Environ(), envKey+"=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	time.Sleep(500 * time.Millisecond)

	stats, err := filepath.Glob("/proc/" + strconv.Itoa(cmd.Process.Pid) + "/task/*/stat")
	if err != nil || len(stats) == 0 {
		t.Fatalf("no threads of the helper under /proc: %v", err)
	}
	idle := 0
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // a thread that has just exited
		}
		cpu, err := parseProcStatCPU(b)
		if err != nil {
			t.Fatal(err)
		}
		// Field 41 is the scheduling policy; fields are counted from the
		// last ')' as in parseProcStatCPU (fields[0] is field 3).
		fields := bytes.Fields(b[bytes.LastIndexByte(b, ')')+1:])
		policy := string(fields[38])
		if policy == strconv.Itoa(schedIdle) {
			idle++
		} else if cpu > 100*time.Millisecond {
			t.Errorf("%s: a thread of policy %s has used %v of processor time", path, policy, cpu)
		}
	}
	if idle != runtime.NumCPU() {
		t.Errorf("%d idle-class spinners, want one per allowed processor (%d)", idle, runtime.NumCPU())
	}
}
