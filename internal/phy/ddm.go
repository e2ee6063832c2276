package phy

// DDM is an SFF-8472-style digital diagnostics snapshot: the five
// monitored quantities every SFP exposes, which the FlexSFP's control
// plane serves over the DDM RPC (§5.3 "Failure Recovery").
type DDM struct {
	TemperatureC float64
	VccVolts     float64
	TxBiasMA     float64
	TxPowerDBm   float64
	RxPowerDBm   float64
}
