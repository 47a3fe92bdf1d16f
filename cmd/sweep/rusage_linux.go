package main

import "syscall"

// peakRSSMB returns the process's peak resident set size in MB (MiB,
// as getrusage's Maxrss reports it), and whether it is known.
func peakRSSMB() (float64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return float64(ru.Maxrss) / 1024, true // Linux reports KiB
}
