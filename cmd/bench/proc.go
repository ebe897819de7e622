package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is the harness-side view of the process — the Go runtime's
// allocation and GC counters and the OS's CPU time — at one instant.
type procSnap struct {
	mem runtime.MemStats
	cpu float64
}

func procSnapshot() procSnap {
	var s procSnap
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuSeconds()
	return s
}

// procMetrics emits what the process spent between two snapshots taken
// around a drive of `work` units on P cores. The harness and the program
// share the process, so these are the cost of the whole closed loop.
func procMetrics(m *metricSet, a, b procSnap, wall time.Duration, work, p int) {
	n := float64(work)
	m.set("proc.alloc_mb_per_op", "MB", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1e6/n, work)
	m.set("proc.allocs_per_op", "count", float64(b.mem.Mallocs-a.mem.Mallocs)/n, work)
	m.set("proc.gc_pause_ms", "ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, int(b.mem.NumGC-a.mem.NumGC))
	m.set("proc.peak_heap_mb", "MB", float64(b.mem.HeapSys)/1e6, 1)
	m.set("proc.cpu_s_per_op", "s", (b.cpu-a.cpu)/n, work)
	m.set("proc.cpu_util", "ratio", (b.cpu-a.cpu)/(wall.Seconds()*float64(p)), work)
}

// cpuSeconds is the user + system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error()) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
