package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hostSample is one reading of the process-wide host counters. Taking it
// stops the world briefly (ReadMemStats), so it is only taken at the edges
// of a timed window, never inside one.
type hostSample struct {
	at         time.Time
	cpuNs      int64 // rusage user+sys
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	gcPauseNs  uint64
	heapSysMB  float64
}

func sampleHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		at:         time.Now(),
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
		heapSysMB:  float64(ms.HeapSys) / (1 << 20),
	}
}

// window is the host cost of one timed region: the difference of two
// hostSamples plus the number of operations the region executed.
type window struct {
	ops        uint64
	wallNs     int64
	cpuNs      int64
	allocs     uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	heapSysMB  float64 // at the end of the window
}

func (a hostSample) until(b hostSample, ops uint64) window {
	return window{
		ops:        ops,
		wallNs:     b.at.Sub(a.at).Nanoseconds(),
		cpuNs:      b.cpuNs - a.cpuNs,
		allocs:     b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.numGC - a.numGC,
		gcPauseNs:  b.gcPauseNs - a.gcPauseNs,
		heapSysMB:  b.heapSysMB,
	}
}

var calibSink uint64

// calibrate times a fixed integer spin (one xorshift chain, no memory
// traffic). The spin does the same work on every call, so its duration
// tracks the clock the host is giving this process right now: frequency
// scaling, steal time and a descheduled vCPU all show up as a longer spin.
// The best of three short spins is reported so one preemption does not
// condemn a repeat.
//
// It does not see everything. A busy sibling hyper-thread slows real
// work (many instructions in flight) by up to 1.8x on the reference host
// while this one dependent chain moves 3 %. A spin with four independent
// chains does see it (+40 %), but that state flickers faster than a repeat,
// so the spins at a repeat's edges do not say what its middle ran at: used
// as the guard it flagged every workload of every run and kept the slow
// repeats anyway. The guard therefore stays a guard against clock drift.
func calibrate() float64 {
	best := math.MaxFloat64
	for i := 0; i < 3; i++ {
		x := uint64(0x9e3779b97f4a7c15)
		t0 := time.Now()
		for j := 0; j < 1_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		dt := float64(time.Since(t0).Nanoseconds())
		calibSink += x
		if dt < best {
			best = dt
		}
	}
	return best
}

// timerOverheadNs is the cost of one monotonic clock read as the tracer
// makes it. A span's duration includes one such read; span-derived
// durations subtract it so a 100 ns callback is not reported as 135.
func timerOverheadNs() float64 {
	const n = 20000
	t0 := time.Now()
	var last int64
	for i := 0; i < n; i++ {
		last = time.Since(t0).Nanoseconds()
	}
	return float64(last) / n
}

// latHist is an exact histogram of modeled latencies in whole simulated
// nanoseconds: one counter per nanosecond up to its size, so percentiles
// are exact and bit-identical across runs of the same model.
type latHist struct {
	bins     []uint32
	n        uint64
	overflow uint64
}

func newLatHist(maxNs int) *latHist { return &latHist{bins: make([]uint32, maxNs)} }

func (h *latHist) observe(ns int64) {
	h.n++
	if ns < 0 || ns >= int64(len(h.bins)) {
		h.overflow++
		return
	}
	h.bins[ns]++
}

func (h *latHist) reset() {
	clear(h.bins)
	h.n, h.overflow = 0, 0
}

// add folds o into h (used to merge the per-cable histograms of a fabric).
func (h *latHist) add(o *latHist) {
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.n += o.n
	h.overflow += o.overflow
}

// percentile returns the smallest latency with at least q of the samples
// at or below it; samples past the histogram's range report its size.
func (h *latHist) percentile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	want := uint64(math.Ceil(q * float64(h.n)))
	if want < 1 {
		want = 1
	}
	var seen uint64
	for i, c := range h.bins {
		seen += uint64(c)
		if seen >= want {
			return float64(i)
		}
	}
	return float64(len(h.bins))
}
