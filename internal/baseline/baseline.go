// Package baseline models the two incumbent options of the paper's §2
// "acceleration gap": executing simple tasks on the host CPU
// (reintroducing latency, jitter, and resource contention) or deploying a
// full SmartNIC/DPU (cost and power out of proportion to the task). The
// acceleration-gap experiment runs the same micro-task over these models
// and the FlexSFP to quantify the gap.
package baseline

import (
	"flexsfp/internal/netsim"
)

// HostCPU models a software path on a shared host core: a serial server
// whose per-packet service time inflates with background contention and
// carries heavy-tailed jitter — the "latency, jitter, and resource
// contention" §2 warns about.
type HostCPU struct {
	sim *netsim.Simulator

	// PerPacket is the uncontended service time (parse + table + action
	// in software, cache-warm).
	PerPacket netsim.Duration
	// Contention is the fraction of the core consumed by other work;
	// service time scales by 1/(1-Contention).
	Contention float64
	// JitterFrac adds an exponential tail with this fraction of the mean
	// (scheduler preemption, cache misses, interrupts).
	JitterFrac float64
	// QueueLimit bounds the software queue (packets); 0 = unbounded.
	QueueLimit int

	out func(data []byte, latency netsim.Duration)

	busyUntil netsim.Time
	queued    int

	InFrames  uint64
	Drops     uint64
	OutFrames uint64
}

// NewHostCPU returns a host path with defaults representative of a
// single-core XDP-less userspace datapath: 550 ns/packet uncontended
// (~1.8 Mpps), 20% jitter.
func NewHostCPU(sim *netsim.Simulator, out func([]byte, netsim.Duration)) *HostCPU {
	return &HostCPU{
		sim:        sim,
		PerPacket:  550 * netsim.Nanosecond,
		JitterFrac: 0.2,
		QueueLimit: 512,
		out:        out,
	}
}

// Name identifies the path in reports.
func (h *HostCPU) Name() string { return "host-cpu" }

// PowerW is the steady-state power attributable to the function: one busy x86 core plus its share of uncore.
func (h *HostCPU) PowerW() float64 { return 18.0 }

// CostUSD is the per-port hardware cost attributable to the function:
// the amortized cost of the core it burns.
func (h *HostCPU) CostUSD() float64 { return 150 }

// Submit offers a frame; false means dropped at the input queue.
func (h *HostCPU) Submit(data []byte) bool {
	now := h.sim.Now()
	start := h.busyUntil
	if start < now {
		start = now
	}
	if h.QueueLimit > 0 && start > now && h.queued >= h.QueueLimit {
		h.Drops++
		return false
	}
	service := float64(h.PerPacket) / (1 - h.Contention)
	if h.JitterFrac > 0 {
		service += h.sim.Rand().ExpFloat64() * service * h.JitterFrac
	}
	done := start.Add(netsim.Duration(service))
	h.busyUntil = done
	if start > now {
		h.queued++
	}
	h.InFrames++
	h.sim.ScheduleAt(done, func() {
		if h.queued > 0 {
			h.queued--
		}
		h.OutFrames++
		if h.out != nil {
			h.out(data, h.sim.Now().Sub(now))
		}
	})
	return true
}

// SmartNIC models a BlueField-2-class DPU: effectively unconstrained
// throughput for micro-tasks, a fixed pipeline-plus-PCIe latency, and a
// power/cost footprint sized for much heavier workloads.
type SmartNIC struct {
	sim *netsim.Simulator

	// Latency is the fixed processing latency (PCIe round plus pipeline).
	Latency netsim.Duration
	// CapacityPPS bounds the accelerator (far above any 10G workload).
	CapacityPPS float64

	out func(data []byte, latency netsim.Duration)

	busyUntilPs int64
	InFrames    uint64
	OutFrames   uint64
	Drops       uint64
}

// NewSmartNIC returns a DPU-class path: 4 µs fixed latency, 80 Mpps.
func NewSmartNIC(sim *netsim.Simulator, out func([]byte, netsim.Duration)) *SmartNIC {
	return &SmartNIC{
		sim:         sim,
		Latency:     4 * netsim.Microsecond,
		CapacityPPS: 80e6,
		out:         out,
	}
}

// Name identifies the path in reports.
func (s *SmartNIC) Name() string { return "smartnic-dpu" }

// PowerW is the function's steady-state power: the BF-2 card draw the
// paper cites.
func (s *SmartNIC) PowerW() float64 { return 75.0 }

// CostUSD is the per-port hardware cost attributable to the function.
func (s *SmartNIC) CostUSD() float64 { return 1750 }

// Submit offers a frame; the DPU never drops at its input.
func (s *SmartNIC) Submit(data []byte) bool {
	now := s.sim.Now()
	nowPs := int64(now) * 1000
	start := s.busyUntilPs
	if start < nowPs {
		start = nowPs
	}
	servicePs := int64(1e12 / s.CapacityPPS)
	s.busyUntilPs = start + servicePs
	s.InFrames++
	done := netsim.Time((s.busyUntilPs+999)/1000) + netsim.Time(s.Latency)
	s.sim.ScheduleAt(done, func() {
		s.OutFrames++
		if s.out != nil {
			s.out(data, s.sim.Now().Sub(now))
		}
	})
	return true
}
