package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// probe is a short reading of host speed, taken at the start and at
// the end of every run so drift between runs shows in the output. It
// is recorded beside the metrics, never as one.
type probe struct {
	CPUMs float64 `json:"cpu_ms"`
	MemMs float64 `json:"mem_ms"`
}

// probeReps is how many times each probe loop runs; the median is kept.
const probeReps = 3

// runProbe times a CPU-bound loop and a memory-bound loop.
func runProbe() probe {
	var cpu, mem []float64
	// The memory loop chases a full-period index cycle through 32 MiB, so
	// every load depends on the one before and lands on a distant line.
	const n = 8 << 20
	buf := make([]uint32, n)
	for i := range buf {
		buf[i] = uint32((uint64(i)*2654435761 + 12345) & (n - 1))
	}
	var sink uint64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		h := uint64(r + 1)
		for i := 0; i < 10_000_000; i++ {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
		}
		cpu = append(cpu, ms(time.Since(t0)))
		t0 = time.Now()
		p := uint32(r)
		for i := 0; i < 250_000; i++ {
			p = buf[p]
		}
		mem = append(mem, ms(time.Since(t0)))
		sink += h + uint64(p)
	}
	runtime.KeepAlive(sink)
	return probe{CPUMs: median(cpu), MemMs: median(mem)}
}

// probeHost runs the probe in a child process, so its buffer does not
// count toward this process's peak RSS.
func probeHost() (*probe, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := exec.Command(self, "--probe").Output()
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	var p probe
	if err := json.Unmarshal(out, &p); err != nil {
		return nil, fmt.Errorf("host probe output: %w", err)
	}
	return &p, nil
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
