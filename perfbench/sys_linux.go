package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// resetPeakRSS restarts the kernel's peak resident set size record
// (VmHWM) from the current size, so that peakRSSMB covers what follows.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // without it, the peak covers the whole process
}

// peakRSSMB is the peak resident set size in MiB since the last
// resetPeakRSS, or since the process started.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
