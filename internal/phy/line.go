// Package phy models transceiver physics: 10GBASE-R line coding and
// framing arithmetic (the identities behind every line-rate claim in the
// paper), the VCSEL's output power as it degrades, the SFP's EEPROM
// identity page, and the SFF-8472-style digital diagnostics (DDM)
// snapshot — the interface through which a FlexSFP exposes "wire-level"
// visibility (§3, §5.3).
package phy

// 10GBASE-R constants.
const (
	// LineRateBaud is the serial signalling rate: 10.3125 GBd.
	LineRateBaud = 10_312_500_000
	// DataRateBps is the post-decode data rate: 64b/66b coding over
	// LineRateBaud leaves exactly 10 Gb/s.
	DataRateBps = LineRateBaud * 64 / 66
	// FrameOverheadBytes is the per-frame wire overhead:
	// 7 preamble + 1 SFD + 12 inter-frame gap.
	FrameOverheadBytes = 20
	// MinFrameBytes is the minimum standard Ethernet frame (without FCS
	// in this model's accounting — the 64-byte minimum already includes
	// it on the wire, so sizes here are wire sizes).
	MinFrameBytes = 64
)

// LineRatePPS returns the maximum packet rate at dataRateBps for frames
// of frameBytes (wire size incl. FCS, excl. preamble/IFG). For 64-byte
// frames at 10 Gb/s this is the canonical 14.88 Mpps.
func LineRatePPS(dataRateBps int64, frameBytes int) float64 {
	wireBits := float64(frameBytes+FrameOverheadBytes) * 8
	return float64(dataRateBps) / wireBits
}

// GoodputBps returns the frame-payload bit rate at line rate for frames
// of frameBytes (i.e. excluding preamble/IFG overhead).
func GoodputBps(dataRateBps int64, frameBytes int) float64 {
	return LineRatePPS(dataRateBps, frameBytes) * float64(frameBytes) * 8
}

// RequiredClockHz returns the minimum PPE clock that sustains line rate
// for minimum-size frames, given the engine's per-frame cycle cost
// model (ceil(bytes/word)+1 cycles): the arithmetic behind "the design
// has been clocked at 156.25 MHz with a 64 b datapath, sufficient for
// line-rate" (§5.1).
func RequiredClockHz(dataRateBps int64, datapathBits int, directions int) float64 {
	wordBytes := datapathBits / 8
	cycles := float64((MinFrameBytes+wordBytes-1)/wordBytes + 1)
	pps := LineRatePPS(dataRateBps, MinFrameBytes) * float64(directions)
	return pps * cycles
}
