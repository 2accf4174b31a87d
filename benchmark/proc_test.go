package main

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"
)

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := []byte("4242 (flow netd) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 157 43 0 0 20 0 9 0 123456 1000000 5000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 200 * clockTick; got != want {
		t.Errorf("cpu = %v, want %v (utime 157 + stime 43 ticks)", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b c"} {
		if _, err := parseProcStatCPU([]byte(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestParseProcStatusKB(t *testing.T) {
	status := []byte("Name:\tflownetd\nVmPeak:\t  999999 kB\nVmHWM:\t  242688 kB\nVmRSS:\t  200000 kB\n")
	got, err := parseProcStatusKB(status, "VmHWM")
	if err != nil || got != 242688 {
		t.Errorf("VmHWM = %d, %v", got, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key must be an error, not zero")
	}
	if _, err := parseProcStatusKB([]byte("VmHWM:\t12 pages\n"), "VmHWM"); err == nil {
		t.Error("a value not in kB must be an error")
	}
}

func TestProcReadsOwnProcessOrSaysUnsupported(t *testing.T) {
	cpu, err := procCPU(os.Getpid())
	if runtime.GOOS != "linux" {
		if !errors.Is(err, errProcUnsupported) {
			t.Fatalf("off Linux the error must be errProcUnsupported, got %v (cpu %v)", err, cpu)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil || rss <= 0 {
		t.Fatalf("peak rss = %v, %v", rss, err)
	}
	if cpu < 0 || cpu > time.Hour {
		t.Errorf("implausible cpu time %v", cpu)
	}
}
