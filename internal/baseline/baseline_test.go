package baseline

import (
	"sort"
	"testing"

	"flexsfp/internal/netsim"
)

func TestHostCPUCapacity(t *testing.T) {
	// A saturated core drains one millisecond's worth of frames:
	// 550 ns/pkt uncontended ≈ 1.8 Mpps, and half that at 50% contention.
	served := func(contention float64) uint64 {
		sim := netsim.New(1)
		h := NewHostCPU(sim, nil)
		h.JitterFrac, h.QueueLimit, h.Contention = 0, 0, contention
		for i := 0; i < 4000; i++ {
			h.Submit(make([]byte, 64))
		}
		sim.RunFor(netsim.Millisecond)
		return h.OutFrames
	}
	if n := served(0); n < 1700 || n > 1900 {
		t.Errorf("capacity = %d frames/ms", n)
	}
	if n := served(0.5); n < 850 || n > 950 {
		t.Errorf("contended capacity = %d frames/ms, want halved", n)
	}
}

func TestHostCPUProcessesAndJitters(t *testing.T) {
	sim := netsim.New(1)
	var lat []netsim.Duration
	h := NewHostCPU(sim, func(d []byte, l netsim.Duration) { lat = append(lat, l) })
	for i := 0; i < 1000; i++ {
		i := i
		sim.ScheduleDetached(netsim.Duration(i)*netsim.Microsecond, func() {
			h.Submit(make([]byte, 64))
		})
	}
	sim.Run()
	if len(lat) != 1000 {
		t.Fatalf("processed %d", len(lat))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, p99 := lat[500], lat[990]
	if p50 < 500 || p50 > 900 {
		t.Errorf("p50 = %v", p50)
	}
	// The exponential tail must show: p99 well above p50.
	if p99 < p50+p50/2 {
		t.Errorf("p99 = %v vs p50 = %v: no jitter tail", p99, p50)
	}
}

func TestHostCPUOverloadDrops(t *testing.T) {
	sim := netsim.New(1)
	h := NewHostCPU(sim, nil)
	h.QueueLimit = 8
	// Offer 10 Mpps (100 ns spacing) against ~1.8 Mpps capacity.
	n := 0
	var offer func()
	offer = func() {
		h.Submit(make([]byte, 64))
		n++
		if n < 10000 {
			sim.ScheduleDetached(100, offer)
		}
	}
	sim.ScheduleDetached(100, offer)
	sim.Run()
	if h.Drops == 0 {
		t.Error("no drops at 5x overload")
	}
	accepted := float64(h.InFrames) / float64(n)
	if accepted > 0.4 {
		t.Errorf("accepted %.0f%% at 5x overload", accepted*100)
	}
}

func TestHostCPUContentionHurtsLatency(t *testing.T) {
	run := func(contention float64) netsim.Duration {
		sim := netsim.New(1)
		var total netsim.Duration
		var count int
		h := NewHostCPU(sim, func(d []byte, l netsim.Duration) { total += l; count++ })
		h.Contention = contention
		h.JitterFrac = 0
		for i := 0; i < 100; i++ {
			i := i
			sim.ScheduleDetached(netsim.Duration(i)*10*netsim.Microsecond, func() {
				h.Submit(make([]byte, 64))
			})
		}
		sim.Run()
		return total / netsim.Duration(count)
	}
	if run(0.6) <= run(0) {
		t.Error("contention did not increase latency")
	}
}

func TestSmartNICFixedLatency(t *testing.T) {
	sim := netsim.New(1)
	var lat []netsim.Duration
	s := NewSmartNIC(sim, func(d []byte, l netsim.Duration) { lat = append(lat, l) })
	for i := 0; i < 100; i++ {
		i := i
		sim.ScheduleDetached(netsim.Duration(i)*netsim.Microsecond, func() {
			s.Submit(make([]byte, 64))
		})
	}
	sim.Run()
	if len(lat) != 100 {
		t.Fatalf("processed %d", len(lat))
	}
	for _, l := range lat {
		if l < s.Latency || l > s.Latency+netsim.Microsecond {
			t.Fatalf("latency = %v, want ≈%v", l, s.Latency)
		}
	}
}

func TestAccelerationGapShape(t *testing.T) {
	// The §2 gap: the SmartNIC has ~100x the power and ~10x the cost of
	// the FlexSFP-class function, while the host CPU has the worst
	// latency tail. Verify the static claims the models encode.
	sim := netsim.New(1)
	h := NewHostCPU(sim, nil)
	s := NewSmartNIC(sim, nil)
	if s.PowerW() < 20*1.5 { // FlexSFP ≈1.5 W
		t.Errorf("SmartNIC power %v W not >> FlexSFP class", s.PowerW())
	}
	if s.CostUSD() < 3*300 {
		t.Errorf("SmartNIC cost %v not >> FlexSFP class", s.CostUSD())
	}
	if h.PowerW() < 10 {
		t.Errorf("host core power %v unrealistically low", h.PowerW())
	}
}
