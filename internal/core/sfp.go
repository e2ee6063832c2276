package core

import (
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/phy"
)

// StandardSFP models a plain (non-programmable) 10GBASE-SR transceiver:
// frames pass straight through with only a retimer delay; power draw is
// constant. It is the baseline the power experiment and the legacy-switch
// cages use.
type StandardSFP struct {
	sim   *netsim.Simulator
	Laser *phy.Laser

	// RetimerDelay is the CDR/retimer latency added per direction.
	RetimerDelay netsim.Duration

	tx [2]func([]byte)

	stats Stats
}

// NewStandardSFP builds a passthrough transceiver.
func NewStandardSFP(sim *netsim.Simulator) *StandardSFP {
	return &StandardSFP{
		sim:          sim,
		Laser:        phy.NewLaser(),
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
func (s *StandardSFP) RxEdge(data []byte) { s.forward(PortEdge, PortOptical, data) }

// RxOptical receives a frame on the fiber side.
func (s *StandardSFP) RxOptical(data []byte) { s.forward(PortOptical, PortEdge, data) }

func (s *StandardSFP) forward(from, to PortID, data []byte) {
	s.stats.Rx[from]++
	if s.tx[to] == nil {
		packet.PutBuffer(data)
		return
	}
	s.sim.ScheduleDetached(s.RetimerDelay, func() {
		s.stats.Tx[to]++
		s.tx[to](data)
	})
}

// Stats returns a counters snapshot.
func (s *StandardSFP) Stats() Stats { return s.stats }

// PowerW returns the constant module draw.
func (s *StandardSFP) PowerW() float64 { return StandardSFPPowerW }

// DDM returns a diagnostics snapshot.
func (s *StandardSFP) DDM() phy.DDM {
	return phy.DDM{
		TemperatureC: 42,
		VccVolts:     3.3,
		TxBiasMA:     s.Laser.EffectiveBiasMilliAmps(),
		TxPowerDBm:   s.Laser.OutputPowerDBm(),
		RxPowerDBm:   -4.0,
	}
}

// EEPROM returns a plain vendor module's identification page.
func (s *StandardSFP) EEPROM() []byte {
	return phy.EncodeEEPROM(phy.Identity{
		VendorName:   "GENERIC",
		VendorPN:     "SFP-10G-SR",
		VendorRev:    "A",
		VendorSN:     "GN2500001111",
		DateCode:     "250101",
		Is10GBaseSR:  true,
		DDMSupported: true,
	})
}
