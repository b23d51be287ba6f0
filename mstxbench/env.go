package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp says where a result was measured: a parallel/serial number
// means nothing without its core count.
func envStamp(workload string, seed int64) string {
	return fmt.Sprintf("env: GOMAXPROCS=%d nproc=%d go=%s GOOS/GOARCH=%s/%s cpu=%q workload=%s seed=%d",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), workload, seed)
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procSample is the process counters the end-to-end metrics diff
// across a timed phase.
type procSample struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
	numGC      uint32
	gcPause    time.Duration
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// sub returns the counter deltas from a to s.
func (s procSample) sub(a procSample) procSample {
	return procSample{
		cpu:        s.cpu - a.cpu,
		totalAlloc: s.totalAlloc - a.totalAlloc,
		numGC:      s.numGC - a.numGC,
		gcPause:    s.gcPause - a.gcPause,
	}
}

func (s procSample) add(a procSample) procSample {
	return procSample{
		cpu:        s.cpu + a.cpu,
		totalAlloc: s.totalAlloc + a.totalAlloc,
		numGC:      s.numGC + a.numGC,
		gcPause:    s.gcPause + a.gcPause,
	}
}

// peakRSSMB is the process's VmHWM in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
