// Package switchsim models the §2.1 legacy aggregation switch: a
// fixed-function L2 device (MAC learning, flooding, store-and-forward
// fabric) whose ports are SFP cages. It has no programmability, no
// telemetry, and no inline enforcement — exactly the gap the FlexSFP
// retrofit fills by swapping the transceiver in a cage, "without any
// modification to the chassis or switch OS".
package switchsim

import (
	"flexsfp/internal/core"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

// Transceiver is what a cage holds: both core.StandardSFP and the
// programmable core.Module satisfy it.
type Transceiver interface {
	RxEdge(data []byte)
	RxOptical(data []byte)
	SetTx(p core.PortID, tx func([]byte))
	PowerW() float64
}

// FabricDelay is the fixed store-and-forward latency of the switching
// fabric.
const FabricDelay = 800 * netsim.Nanosecond

// Switch is the legacy L2 aggregation switch.
type Switch struct {
	sim   *netsim.Simulator
	cages []*Cage

	macTable map[packet.MAC]int

	stats SwitchStats
}

// SwitchStats counts fabric activity.
type SwitchStats struct {
	Forwarded uint64
	Flooded   uint64
	Dropped   uint64 // no ports / filtered
}

// Cage is one switch port's SFP slot.
type Cage struct {
	sw    *Switch
	index int
	xcvr  Transceiver
	// fiberTx transmits toward the far end of the fiber.
	fiberTx func([]byte)
}

// New builds a switch with n empty cages.
func New(sim *netsim.Simulator, n int) *Switch {
	sw := &Switch{
		sim:      sim,
		macTable: make(map[packet.MAC]int),
	}
	for i := 0; i < n; i++ {
		sw.cages = append(sw.cages, &Cage{sw: sw, index: i})
	}
	return sw
}

// Ports returns the cage count.
func (sw *Switch) Ports() int { return len(sw.cages) }

// Cage returns port i's cage.
func (sw *Switch) Cage(i int) *Cage { return sw.cages[i] }

// Stats returns fabric counters.
func (sw *Switch) Stats() SwitchStats { return sw.stats }

// Insert seats a transceiver in cage i — the drop-in upgrade path. The
// edge (electrical) side faces the switch fabric; the optical side faces
// the fiber.
func (c *Cage) Insert(x Transceiver) {
	c.xcvr = x
	// Transceiver edge-side TX feeds the switch fabric (ingress).
	x.SetTx(core.PortEdge, func(data []byte) { c.sw.ingress(c.index, data) })
	// Transceiver optical-side TX goes down the fiber.
	x.SetTx(core.PortOptical, func(data []byte) {
		if c.fiberTx == nil {
			packet.PutBuffer(data)
			return
		}
		c.fiberTx(data)
	})
}

// Transceiver returns the seated module (nil if empty).
func (c *Cage) Transceiver() Transceiver { return c.xcvr }

// SetFiberTx wires the cage's optical transmit toward the remote end.
func (c *Cage) SetFiberTx(tx func([]byte)) { c.fiberTx = tx }

// DeliverFromFiber is the fiber's receive entry: frames arriving on the
// port's optics.
func (c *Cage) DeliverFromFiber(data []byte) {
	if c.xcvr == nil {
		packet.PutBuffer(data)
		return
	}
	c.xcvr.RxOptical(data)
}

// ingress runs the fixed-function pipeline for a frame that entered the
// fabric from port p. The switch owns data from here: it forwards it,
// floods a copy to every other port, or drops it, and releases it in the
// last two cases.
func (sw *Switch) ingress(p int, data []byte) {
	if len(data) < 14 {
		sw.stats.Dropped++
		packet.PutBuffer(data)
		return
	}
	dst, src := packet.MAC(data[0:6]), packet.MAC(data[6:12])
	// Learn.
	if !src.IsMulticast() {
		sw.macTable[src] = p
	}
	sw.sim.ScheduleDetached(FabricDelay, func() {
		if out, ok := sw.macTable[dst]; ok && !dst.IsBroadcast() {
			if out == p {
				sw.stats.Dropped++ // hairpin: filtered
				packet.PutBuffer(data)
				return
			}
			sw.stats.Forwarded++
			sw.egress(out, data)
			return
		}
		// Flood: each port gets its own copy, because the transceiver
		// behind it may rewrite the frame in place.
		sw.stats.Flooded++
		for i := range sw.cages {
			if i != p {
				cp := packet.GetBuffer(len(data))
				copy(cp, data)
				sw.egress(i, cp)
			}
		}
		packet.PutBuffer(data)
	})
}

// egress hands a frame to port i's transceiver (edge side).
func (sw *Switch) egress(i int, data []byte) {
	c := sw.cages[i]
	if c.xcvr == nil {
		sw.stats.Dropped++
		packet.PutBuffer(data)
		return
	}
	c.xcvr.RxEdge(data)
}

// TotalTransceiverPowerW sums the power of all seated modules.
func (sw *Switch) TotalTransceiverPowerW() float64 {
	var p float64
	for _, c := range sw.cages {
		if c.xcvr != nil {
			p += c.xcvr.PowerW()
		}
	}
	return p
}

// MACTableSize returns the number of learned addresses.
func (sw *Switch) MACTableSize() int { return len(sw.macTable) }

// Fiber connects a cage's optics to a Host NIC over a duplex fiber of the
// given rate and propagation delay.
func Fiber(sim *netsim.Simulator, c *Cage, h *Host, bitsPerSec int64, prop netsim.Duration) {
	down := netsim.NewLink(sim, bitsPerSec, prop, h.Deliver)
	up := netsim.NewLink(sim, bitsPerSec, prop, c.DeliverFromFiber)
	c.SetFiberTx(func(data []byte) { down.Send(data) })
	h.SetTx(func(data []byte) bool { return up.Send(data) })
}

// Host is a simple attached endpoint (subscriber CPE or an upstream
// router) with a receive hook.
type Host struct {
	Name string
	MAC  packet.MAC

	tx func([]byte) bool
	// OnFrame sees each received frame, which is released when it
	// returns.
	OnFrame func(data []byte)

	RxFrames uint64
	RxBytes  uint64
	TxFrames uint64
}

// NewHost builds a host endpoint.
func NewHost(name string, mac packet.MAC) *Host {
	return &Host{Name: name, MAC: mac}
}

// SetTx wires the host's transmit path.
func (h *Host) SetTx(tx func([]byte) bool) { h.tx = tx }

// Send transmits a frame; false means it was dropped at the link queue.
func (h *Host) Send(data []byte) bool {
	if h.tx == nil {
		return false
	}
	h.TxFrames++
	return h.tx(data)
}

// Deliver is the host's receive entry: the end of a frame's life.
func (h *Host) Deliver(data []byte) {
	h.RxFrames++
	h.RxBytes += uint64(len(data))
	if h.OnFrame != nil {
		h.OnFrame(data)
	}
	packet.PutBuffer(data)
}
