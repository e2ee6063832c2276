package core

import (
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

// StandardSFP models a plain (non-programmable) 10GBASE-SR transceiver:
// frames pass straight through with only a retimer delay; power draw is
// constant. It is the baseline the power experiment and the legacy-switch
// cages use.
type StandardSFP struct {
	sim *netsim.Simulator

	// RetimerDelay is the CDR/retimer latency added per direction.
	RetimerDelay netsim.Duration

	tx [2]func([]byte)
}

// NewStandardSFP builds a passthrough transceiver.
func NewStandardSFP(sim *netsim.Simulator) *StandardSFP {
	return &StandardSFP{
		sim:          sim,
		RetimerDelay: 5 * netsim.Nanosecond,
	}
}

// SetTx wires the transmit callback of a port (PortEdge or PortOptical).
func (s *StandardSFP) SetTx(p PortID, tx func([]byte)) {
	if p == PortEdge || p == PortOptical {
		s.tx[p] = tx
	}
}

// RxEdge receives a frame on the electrical side.
func (s *StandardSFP) RxEdge(data []byte) { s.forward(PortOptical, data) }

// RxOptical receives a frame on the fiber side.
func (s *StandardSFP) RxOptical(data []byte) { s.forward(PortEdge, data) }

func (s *StandardSFP) forward(to PortID, data []byte) {
	if s.tx[to] == nil {
		packet.PutBuffer(data)
		return
	}
	s.sim.ScheduleDetached(s.RetimerDelay, func() { s.tx[to](data) })
}

// PowerW returns the constant module draw.
func (s *StandardSFP) PowerW() float64 { return StandardSFPPowerW }
