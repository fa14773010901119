package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end timings are CPU time of the process doing the work, not
// wall time. On a shared host the wall time of the same work swings with
// whatever else the host runs; the kernel's per-process CPU clock leaves
// out the time the process waited for a CPU, including time the hypervisor
// gave its virtual CPU to another guest (steal time, with paravirtual time
// accounting). The benchmark runs the work on a single thread (GOMAXPROCS
// 1, in this process and in the server), so CPU time is the time the work
// would take on a CPU of its own, and it carries no spinning or waiting
// between threads.

// clockProcessCPU is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPU = 2

// cpuClock reads a CPU-time clock; 0 when the clock cannot be read (a
// process that has exited).
func cpuClock(id int) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// selfCPU is the CPU time this process has used, all threads together.
func selfCPU() time.Duration { return cpuClock(clockProcessCPU) }

// pidCPU is the CPU time process pid has used, all threads together: the
// clock id clock_getcpuclockid(3) gives for pid (CPUCLOCK_SCHED of the
// whole thread group).
func pidCPU(pid int) time.Duration { return cpuClock((^pid)<<3 | 2) }

// cpuCost runs fn and returns the CPU time this process spent meanwhile.
func cpuCost(fn func() error) (time.Duration, error) {
	start := selfCPU()
	err := fn()
	return selfCPU() - start, err
}

// ms converts a duration to milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
