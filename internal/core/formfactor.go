package core

import "math"

// This file models the paper's §6 open question — "Scalability: can this
// approach be extended to higher-speed and higher-density form factors
// like QSFP-DD or OSFP while meeting power and thermal constraints?" —
// as a searchable design space: pluggable form factors with their MSA
// power envelopes, silicon process nodes with their dynamic-power
// scaling, and a planner that finds the cheapest (lowest-power) PPE
// configuration sustaining a target line rate and the smallest module
// that can host it.

// FormFactor is a pluggable module class per its MSA.
type FormFactor struct {
	Name string
	// EnvelopeW is the practical module power ceiling.
	EnvelopeW float64
	// MaxGbps is the fastest standard rate the form factor carries.
	MaxGbps float64
	// Lanes is the electrical lane count.
	Lanes int
}

// The pluggable family, smallest first.
var (
	FFSFPPlus = FormFactor{Name: "SFP+", EnvelopeW: 3, MaxGbps: 10, Lanes: 1}
	FFSFP28   = FormFactor{Name: "SFP28", EnvelopeW: 3, MaxGbps: 25, Lanes: 1}
	FFQSFP28  = FormFactor{Name: "QSFP28", EnvelopeW: 6, MaxGbps: 100, Lanes: 4}
	FFQSFPDD  = FormFactor{Name: "QSFP-DD", EnvelopeW: 14, MaxGbps: 400, Lanes: 8}
	FFOSFP    = FormFactor{Name: "OSFP", EnvelopeW: 17, MaxGbps: 800, Lanes: 8}
)

// FormFactors lists the family smallest-envelope first.
func FormFactors() []FormFactor {
	return []FormFactor{FFSFPPlus, FFSFP28, FFQSFP28, FFQSFPDD, FFOSFP}
}

// ProcessNode captures how silicon generation scales the PPE's dynamic
// power and clock ceiling (§5.3: "the current FlexSFP prototype is built
// on a mature 28 nm FPGA; future iterations will leverage ongoing
// semiconductor trends").
type ProcessNode struct {
	Name        string
	Nm          int
	DynScale    float64 // dynamic power relative to 28 nm
	MaxClockMHz float64
}

// Process nodes.
var (
	Node28 = ProcessNode{Name: "28nm", Nm: 28, DynScale: 1.0, MaxClockMHz: 400}
	Node16 = ProcessNode{Name: "16nm", Nm: 16, DynScale: 0.55, MaxClockMHz: 600}
	Node7  = ProcessNode{Name: "7nm", Nm: 7, DynScale: 0.30, MaxClockMHz: 800}
)

// EngineCapacityGbps returns the min-frame-limited wire rate one PPE
// pipeline sustains: frames take ceil(64/wordBytes)+1 cycles for 84
// wire bytes.
func EngineCapacityGbps(clockHz int64, widthBits int) float64 {
	wordBytes := widthBits / 8
	cycles := float64((MinFrame+wordBytes-1)/wordBytes + 1)
	pps := float64(clockHz) / cycles
	return pps * wireBytesPerMinFrame * 8 / 1e9
}

const (
	// MinFrame is the minimum Ethernet frame the capacity analysis uses.
	MinFrame = 64
	// wireBytesPerMinFrame includes preamble + IFG.
	wireBytesPerMinFrame = 84
)

// ScaledPeakPowerW extends the calibrated SFP+ power model to multi-lane
// modules, parallel PPE pipelines and newer process nodes:
//
//	optics: 0.55 W first lane + 0.35 W per extra lane
//	static: 0.30 W × sqrt(width/64 × engines) (larger die)
//	Mi-V:   0.07 W
//	dynamic: 0.60 W × clock/156.25M × width/64 × engines × node scale
//
// At (156.25 MHz, 64 b, 1 engine, 1 lane, 28 nm) this reduces exactly to
// the paper-calibrated 1.52 W.
func ScaledPeakPowerW(clockHz int64, widthBits, engines, lanes int, node ProcessNode) float64 {
	optics := 0.55 + 0.35*float64(lanes-1)
	widthScale := float64(widthBits) / baseDatapathBits
	static := flexFPGAStaticW * math.Sqrt(widthScale*float64(engines))
	dyn := flexDynamicFullW * (float64(clockHz) / baseClockHz) * widthScale * float64(engines) * node.DynScale
	return optics + static + flexMiVW + dyn
}

// FormFactorPlan is the planner's answer for one target rate.
type FormFactorPlan struct {
	TargetGbps   float64
	Node         ProcessNode
	ClockHz      int64
	DatapathBits int
	Engines      int
	CapacityGbps float64
	PeakW        float64
	// Module is the smallest form factor that carries the rate and
	// admits the power.
	Module FormFactor
	// Feasible is false when no form factor in the family works.
	Feasible bool
}

// PlanFormFactor searches the (width, clock, engines) grid for the
// lowest-power configuration sustaining targetGbps on the node, then
// picks the smallest form factor that hosts it.
func PlanFormFactor(targetGbps float64, node ProcessNode) FormFactorPlan {
	widths := []int{64, 128, 256, 512, 1024}
	clocks := []int64{156_250_000, 312_500_000, int64(node.MaxClockMHz) * 1_000_000}
	engines := []int{1, 2, 4}

	best := FormFactorPlan{TargetGbps: targetGbps, Node: node}
	bestW := math.Inf(1)
	for _, w := range widths {
		for _, c := range clocks {
			if float64(c)/1e6 > node.MaxClockMHz {
				continue
			}
			for _, e := range engines {
				cap := EngineCapacityGbps(c, w) * float64(e)
				if cap < targetGbps {
					continue
				}
				lanes := lanesFor(targetGbps)
				p := ScaledPeakPowerW(c, w, e, lanes, node)
				if p < bestW {
					bestW = p
					best.ClockHz, best.DatapathBits, best.Engines = c, w, e
					best.CapacityGbps, best.PeakW = cap, p
				}
			}
		}
	}
	if math.IsInf(bestW, 1) {
		return best // infeasible at any configuration
	}
	for _, ff := range FormFactors() {
		if ff.MaxGbps >= targetGbps && ff.EnvelopeW >= best.PeakW {
			best.Module = ff
			best.Feasible = true
			break
		}
	}
	return best
}

// lanesFor returns the optical lane count a target rate implies
// (25G lanes up to 100G, 50G lanes beyond — the QSFP28/QSFP-DD split).
func lanesFor(targetGbps float64) int {
	switch {
	case targetGbps <= 25:
		return 1
	case targetGbps <= 100:
		return int(math.Ceil(targetGbps / 25))
	default:
		return int(math.Ceil(targetGbps / 50))
	}
}
