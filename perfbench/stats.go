package main

import (
	"math"
	"os"
	"regexp"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs and whether it
// may be reported: a tail percentile is reported only when at least ten
// samples lie beyond it, so that it is not set by one or two outliers.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	rank = min(max(rank, 1), n)
	beyond := n - rank
	return s[rank-1], q <= 0.5 || beyond >= 10
}

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter measures one pass: its wall time, process CPU time and peak
// resident memory.
type meter struct {
	t0       time.Time
	c0       time.Duration
	resetHWM bool
}

// startMeter returns the heap to the OS first, so that every pass
// starts from the same memory state and its peak is its own.
func startMeter() meter {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets the kernel's peak-RSS mark
	// (VmHWM) to the current RSS.
	err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return meter{t0: time.Now(), c0: cpuTime(), resetHWM: err == nil}
}

// stop returns the pass's wall and CPU seconds and its peak RSS in MiB:
// VmHWM since startMeter, or the process's lifetime peak where the mark
// could not be reset.
func (m meter) stop() (wall, cpu, rssMB float64) {
	wall, cpu = time.Since(m.t0).Seconds(), (cpuTime() - m.c0).Seconds()
	if m.resetHWM {
		if kb, ok := vmHWM(); ok {
			return wall, cpu, kb / 1024
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return wall, cpu, rssMB
}

// vmHWM reads the peak-RSS mark in KiB from /proc/self/status.
func vmHWM() (float64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb, err == nil
		}
	}
	return 0, false
}
