package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("frames")
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestCounterConcurrentSum(t *testing.T) {
	r := New()
	c := r.Counter("c")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("concurrent sum = %d, want %d", got, workers*per)
	}
}

// TestGauge pins the one gauge path: GaugeFunc reads the live value at
// each snapshot, so a gauge never holds a stale copy of the state it
// exposes.
func TestGauge(t *testing.T) {
	r := New()
	depth := 3.5
	r.GaugeFunc("depth", func() float64 { return depth })
	if g := r.Snapshot().Gauges; len(g) != 1 || g[0].Value != 3.5 {
		t.Fatalf("gauges = %+v", g)
	}
	depth = -7
	if g := r.Snapshot().Gauges; g[0].Value != -7 {
		t.Fatalf("gauge = %v after the state changed", g[0].Value)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []uint64{10, 100, 1000})
	for _, v := range []uint64{1, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1+10+11+100+500+5000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Min() != 1 || h.Max() != 5000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	snap, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// <=10: {1,10}; <=100: {11,100}; <=1000: {500}; overflow: {5000}.
	want := []uint64{2, 2, 1, 1}
	var got []uint64
	for _, b := range snap.Buckets {
		got = append(got, b.Count)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bucket counts = %v, want %v", got, want)
	}
	if !snap.Buckets[3].Overflow {
		t.Fatal("last bucket should be the overflow bin")
	}
	if snap.Mean != float64(h.Sum())/6 {
		t.Fatalf("mean = %v", snap.Mean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	r := New()
	h := r.Histogram("empty", []uint64{1})
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram min/max/mean = %d/%d/%v", h.Min(), h.Max(), h.Mean())
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(100, 2, 4)
	if !reflect.DeepEqual(exp, []uint64{100, 200, 400, 800}) {
		t.Fatalf("ExpBuckets = %v", exp)
	}
	lin := LinearBuckets(0, 8, 3)
	if !reflect.DeepEqual(lin, []uint64{0, 8, 16}) {
		t.Fatalf("LinearBuckets = %v", lin)
	}
	// Slow-growing exponential layouts must stay strictly increasing.
	slow := ExpBuckets(1, 1.1, 10)
	for i := 1; i < len(slow); i++ {
		if slow[i] <= slow[i-1] {
			t.Fatalf("ExpBuckets not strictly increasing: %v", slow)
		}
	}
}

func TestGaugeFuncAndSnapshotOrdering(t *testing.T) {
	r := New()
	r.Counter("zz")
	r.Counter("aa").Add(5)
	r.GaugeFunc("g2", func() float64 { return 2 })
	r.GaugeFunc("g1", func() float64 { return 1 })
	snap := r.Snapshot()
	if snap.Counters[0].Name != "aa" || snap.Counters[1].Name != "zz" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	if snap.Gauges[0].Name != "g1" || snap.Gauges[1].Name != "g2" {
		t.Fatalf("gauges not sorted: %+v", snap.Gauges)
	}
	if v, ok := snap.Counter("aa"); !ok || v != 5 {
		t.Fatalf("Counter(aa) = %d,%v", v, ok)
	}
	if v := snap.Gauges[0].Value; v != 1 {
		t.Fatalf("g1 = %v", v)
	}
	if _, ok := snap.Counter("missing"); ok {
		t.Fatal("missing counter found")
	}
	// Two snapshots of the same state serialize identically.
	a, _ := json.Marshal(snap)
	b, _ := json.Marshal(r.Snapshot())
	if string(a) != string(b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := New()
	r.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.GaugeFunc("dup", func() float64 { return 0 })
}

// TestConcurrentRecordAndSnapshot is the race-detector regression for the
// whole record path: counters, gauges, histograms and snapshots from
// many goroutines at once.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := New()
	c := r.Counter("c")
	var gv atomic.Int64
	r.GaugeFunc("g", func() float64 { return float64(gv.Load()) })
	h := r.Histogram("h", ExpBuckets(10, 4, 8))
	r.GaugeFunc("f", func() float64 { return math.Pi })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.Add(1)
				gv.Store(int64(i))
				h.Observe(uint64(i * w))
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := r.Snapshot()
				if _, err := json.Marshal(snap); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 20000 {
		t.Fatalf("counter = %d", c.Value())
	}
	if h.Count() != 20000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
}
