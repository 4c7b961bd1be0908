package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified.
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

// minBeyond is how many samples must lie strictly above a reported
// percentile for it to describe a tail rather than a single slow op.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100)
// and an error when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Runtime counters read through runtime/metrics; allocation bytes are
// exact and cumulative, which makes per-op allocation repeat to the byte
// on deterministic work while wall time moves.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mLiveHeap   = "/gc/heap/live:bytes"
)

// rtSample is one reading of the runtime counters the benchmark uses.
type rtSample struct {
	allocBytes uint64
	gcCPU      float64
	cpu        time.Duration // process user+sys
}

var rtSamples = []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCPU}}

func readRuntime() rtSample {
	metrics.Read(rtSamples)
	return rtSample{
		allocBytes: rtSamples[0].Value.Uint64(),
		gcCPU:      rtSamples[1].Value.Float64(),
		cpu:        processCPU(),
	}
}

// allocBytes reads only the cumulative heap-allocation counter: cheap
// enough to bracket a single layer call.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: mAllocBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap is the heap still reachable after the last GC cycle.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: mLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
