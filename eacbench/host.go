package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// host identifies the machine and build a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
}

func hostStamp() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPUModel:   "unknown",
	}
	// The go command stamps the commit only when it builds inside a git
	// work tree; a plain source checkout reports "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Commit += "+modified"
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB, read
// from VmHWM in /proc/self/status. (getrusage's ru_maxrss would also count
// the peak of the shell that exec'd the benchmark.)
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kib); err != nil {
				return 0, fmt.Errorf("peak RSS: parsing %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
