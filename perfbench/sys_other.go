//go:build !linux

package main

import "runtime"

func resetPeakRSS() {}

// peakRSSMB approximates the peak resident set size where the kernel
// offers no peak record: memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
