//go:build !linux

package main

// peakRSSMB is unknown off Linux, where Maxrss has other units.
func peakRSSMB() (float64, bool) { return 0, false }
