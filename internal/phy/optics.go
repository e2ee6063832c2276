package phy

import "math"

// Laser models the transceiver's VCSEL: nominal output power, bias
// current, and a degradation factor that reliability simulations drive
// toward failure (gradual optical power loss is the dominant VCSEL
// failure mode, §5.3).
type Laser struct {
	// NominalPowerDBm is the healthy launch power.
	NominalPowerDBm float64
	// BiasMilliAmps is the drive current.
	BiasMilliAmps float64
	// Degradation is the fractional optical power loss (0 = healthy,
	// 1 = dark).
	Degradation float64
	// Enabled reflects the TX-disable control line.
	Enabled bool
}

// NewLaser returns a healthy 10GBASE-SR-class VCSEL.
func NewLaser() *Laser {
	return &Laser{NominalPowerDBm: -2.0, BiasMilliAmps: 6.0, Enabled: true}
}

// OutputPowerDBm returns the current launch power accounting for
// degradation; a disabled or dark laser reports -40 dBm (measurement
// floor).
func (l *Laser) OutputPowerDBm() float64 {
	if !l.Enabled || l.Degradation >= 1 {
		return -40
	}
	// Power scales linearly in mW with (1 - degradation).
	mw := dbmToMw(l.NominalPowerDBm) * (1 - l.Degradation)
	return mwToDbm(mw)
}

// EffectiveBiasMilliAmps returns the bias current: degrading VCSELs are
// driven harder by the driver's APC loop trying to hold power.
func (l *Laser) EffectiveBiasMilliAmps() float64 {
	if !l.Enabled {
		return 0
	}
	return l.BiasMilliAmps * (1 + 1.5*l.Degradation)
}

func dbmToMw(dbm float64) float64 { return math.Pow(10, dbm/10) }
func mwToDbm(mw float64) float64 {
	if mw <= 0 {
		return -40
	}
	return 10 * math.Log10(mw)
}
