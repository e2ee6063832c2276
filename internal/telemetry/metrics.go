// Package telemetry is the in-cable observability layer of the §4.1
// "Active Core" vision: the module is not just a datapath but a network
// element that originates its own measurements. It provides the three
// metric primitives every layer of the model records into — sharded
// atomic counters, fixed-bucket histograms, and gauges read at snapshot
// time (GaugeFunc) — plus a sampled
// packet-trace ring (trace.go) and a named registry with deterministic
// snapshots (registry.go).
//
// The record path is the contract: Counter.Add, Histogram.Observe and
// Tracer.Hop allocate nothing, take no locks, and are safe
// from any goroutine. Registration and snapshotting are the slow path
// (mutex-guarded, allocating); they happen on the management plane, never
// per frame. This mirrors the hardware split the paper draws between the
// line-rate pipeline and the Mi-V management core that reads it out.
package telemetry

import (
	"sync/atomic"
	"unsafe"
)

// cacheLine pads shards so two cores incrementing neighbouring shards do
// not false-share.
const cacheLine = 64

// shardCount is the number of counter stripes. Fixed at a small power of
// two: the datapath is single-threaded per simulator, so stripes exist to
// keep concurrent simulators (the parallel experiment runner) and the
// management goroutines from contending, not to scale one hot counter.
const shardCount = 8

type counterShard struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Counter is a monotonically increasing sharded counter. Add spreads
// increments over cache-line-padded stripes chosen by a goroutine-stable
// hash, so concurrent writers do not bounce one cache line; Value sums
// the stripes.
type Counter struct {
	name   string
	shards [shardCount]counterShard
}

// shardIndex derives a stripe index from the address of a stack variable:
// goroutines own distinct stacks, so concurrent recorders spread across
// stripes while a single recorder stays on one (and on the sim thread —
// the common case — the index is effectively constant). No allocation,
// no runtime private APIs.
func shardIndex() uint64 {
	var b byte
	return (uint64(uintptr(unsafe.Pointer(&b))) >> 9) & (shardCount - 1)
}

// Add increments the counter by n. Zero allocations, no locks.
func (c *Counter) Add(n uint64) {
	c.shards[shardIndex()].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total. Concurrent Adds may or may not be
// included; the value is monotonic across calls.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// maxHistBuckets bounds a histogram's bucket count; the record path does
// a linear scan, so bucket layouts stay small and cache-resident like the
// BRAM bin arrays they model.
const maxHistBuckets = 64

// Histogram is a fixed-bucket histogram of uint64 samples (latencies in
// ns, queue depths in frames). Bucket bounds are fixed at construction —
// the hardware shape: a small array of comparators in front of BRAM
// counters — so Observe is a bounded linear scan over at most
// maxHistBuckets upper bounds plus one overflow bin. Count, sum, min and
// max are tracked alongside.
type Histogram struct {
	name   string
	bounds []uint64 // sorted inclusive upper bounds; len <= maxHistBuckets
	counts []atomic.Uint64
	sum    atomic.Uint64
	min    atomic.Uint64 // ^uint64(0) until first sample
	max    atomic.Uint64
}

func newHistogram(name string, bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	if len(bounds) > maxHistBuckets {
		panic("telemetry: too many histogram buckets")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{
		name:   name,
		bounds: append([]uint64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1), // +1 overflow bin
	}
	h.min.Store(^uint64(0))
	return h
}

// Observe records one sample. Zero allocations, no locks. The total count
// is not tracked separately — it is the sum of the bucket counters, paid
// for at snapshot time instead of on every record (this path runs per
// frame at line rate; two RMWs, a bounded scan, and two usually-cold CAS
// checks are the whole cost).
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of samples observed (a sum over the bucket
// counters; management-plane cost).
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the mean sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Min returns the smallest observed sample (0 with no samples).
func (h *Histogram) Min() uint64 {
	v := h.min.Load()
	if v == ^uint64(0) {
		return 0
	}
	return v
}

// Max returns the largest observed sample.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// ExpBuckets builds n exponentially growing upper bounds starting at
// start (must be > 0) and multiplying by factor (must be > 1) — the
// usual latency layout.
func ExpBuckets(start uint64, factor float64, n int) []uint64 {
	if start == 0 || factor <= 1 || n <= 0 {
		panic("telemetry: bad exponential bucket layout")
	}
	out := make([]uint64, 0, n)
	v := float64(start)
	last := uint64(0)
	for i := 0; i < n; i++ {
		b := uint64(v)
		if b <= last {
			b = last + 1
		}
		out = append(out, b)
		last = b
		v *= factor
	}
	return out
}

// LinearBuckets builds n upper bounds start, start+step, ...
func LinearBuckets(start, step uint64, n int) []uint64 {
	if step == 0 || n <= 0 {
		panic("telemetry: bad linear bucket layout")
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, start+uint64(i)*step)
	}
	return out
}
