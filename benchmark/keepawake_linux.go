package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// This file is the keep-awake helper: a second copy of this program that
// runs one spinning thread per processor at the kernel's idle scheduling
// class, so that the virtual machine's processors never halt while a run
// measures.
//
// Why: the benchmark's processes sleep and wake thousands of times a second
// (a closed-loop client waits for each reply), and on a small VM of a shared
// host a processor that has halted comes back slow — for milliseconds the
// same arithmetic takes half as long again, and how often that happens
// drifts with the host's load from minute to minute. With the processors
// kept busy, ten runs of point_lookup alternated with and without the
// helper spread 4.6% against 11.0% in throughput and 6.7% against 11.3% in
// median latency. A SCHED_IDLE thread runs only when nothing else wants the
// processor and is preempted the moment anything does, so it takes no time
// from the service or the load generator; it stands for the other tenants
// of a busy machine.

// schedIdle is SCHED_IDLE from <sched.h>.
const schedIdle = 5

// keepAwakeMain is the helper's whole life: spin until the parent is gone.
func keepAwakeMain() {
	parent := os.Getppid()
	var mask [16]uint64 // 1024 processors
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		fail(1, fmt.Errorf("keep-awake: sched_getaffinity: %v", e))
	}
	var cpus []int
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	runtime.GOMAXPROCS(len(cpus) + 1) // the spinners never yield their P
	started := make(chan error)
	for _, cpu := range cpus {
		go spinOn(cpu, started)
	}
	for range cpus {
		if err := <-started; err != nil {
			fail(1, err) // never spin at a priority that competes
		}
	}
	// Should the parent die without killing this process, end with it.
	for os.Getppid() == parent {
		time.Sleep(200 * time.Millisecond)
	}
}

// spinOn pins the calling thread to one processor, drops it to the idle
// class and spins for ever.
func spinOn(cpu int, started chan<- error) {
	runtime.LockOSThread()
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		started <- fmt.Errorf("keep-awake: sched_setaffinity(%d): %v", cpu, e)
		return
	}
	var param [1]int32 // sched_priority 0
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param[0]))); e != 0 {
		started <- fmt.Errorf("keep-awake: sched_setscheduler(SCHED_IDLE): %v", e)
		return
	}
	started <- nil
	for { // touches no memory, so the spinners share no cache line
	}
}
