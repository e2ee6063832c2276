package telemetry

import "testing"

// The record-path contract: Counter.Add, Histogram.Observe,
// Tracer.Sample/SetCurrent/Hop never allocate. These pins are the
// regression wall for the whole instrumented datapath — if any of them
// starts allocating, every hot loop that records into it does too.

func TestCounterAddZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter("c")
	if n := testing.AllocsPerRun(200, func() {
		c.Add(3)
		c.Inc()
	}); n != 0 {
		t.Fatalf("Counter.Add allocates %v allocs/op", n)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	r := New()
	h := r.Histogram("h", ExpBuckets(64, 2, 16))
	v := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(v)
		v += 977 // walk across buckets, min/max CAS paths included
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v allocs/op", n)
	}
}

func TestTracerRecordZeroAlloc(t *testing.T) {
	tr := NewTracer(2, 64)
	if n := testing.AllocsPerRun(200, func() {
		id, ok := tr.Sample()
		if ok {
			tr.SetCurrent(id)
			tr.Hop(id, StageGen, 100, 64, 0)
			tr.Hop(id, StageVerdict, 200, 64, 1)
			tr.SetCurrent(0)
		}
	}); n != 0 {
		t.Fatalf("Tracer record path allocates %v allocs/op", n)
	}
}
