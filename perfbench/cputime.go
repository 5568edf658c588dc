package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow is the CPU time every thread of this process has consumed. On a
// shared host wall time also counts the intervals the hypervisor ran other
// tenants; CPU time does not, so CPU-based metrics stay comparable between
// runs that wall-clock metrics would separate by tens of percent.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
