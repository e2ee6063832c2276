package xdp

import (
	"fmt"

	"flexsfp/internal/fpga"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// Offload packages a verified XDP program as a ppe.Program so it rides
// the standard compile → bitstream → boot pipeline. The declarative
// structure models an hXDP-class soft datapath: a fixed execution core
// plus per-instruction incremental cost, with the instruction store in
// LSRAM.
//
// Calibration: hXDP's single-core Table 2 footprint (≈68,689 LUT6 ≈
// 109.9k LE with 1,799 kbit BRAM) is the *full* Xilinx artifact including
// its host AXI plumbing; the FlexSFP-resident core modeled here is the
// lean datapath variant, sized so that a maximal (4,096-instruction)
// program stays well inside the MPF200T next to the shell.
func Offload(p *Program) (*ppe.Program, error) {
	if err := p.Verify(); err != nil {
		return nil, err
	}
	prog := &ppe.Program{
		Name:        p.Name,
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet},
		Registers: []ppe.RegisterSpec{
			{Name: "xdp_regs", Bits: 64 * NumRegs},
		},
		Actions: []ppe.ActionSpec{
			// The checked-access unit and the ALU lanes, sized to the
			// program (expressed with the estimator's primitives).
			{Kind: ppe.ActionRewrite, Bits: alignedCost(len(p.Insns), 8)},
			{Kind: ppe.ActionHash, Bits: 32},
		},
		Stages: stagesFor(len(p.Insns)),
		// The soft core retires one instruction per clock, so a packet
		// occupies the input for the program length (worst case: every
		// instruction on the longest path executes). The optimizer's
		// packing pass overrides this with the VLIW schedule length.
		ProgCycles: len(p.Insns),
		Handler: ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict {
			act, err := p.Run(ctx.Data)
			if err != nil {
				return ppe.VerdictDrop // XDP_ABORTED
			}
			switch act {
			case ActPass:
				return ppe.VerdictPass
			case ActTx:
				return ppe.VerdictTx
			case ActRedirect:
				return ppe.VerdictRedirect
			default: // ActDrop, ActAborted, anything unknown
				return ppe.VerdictDrop
			}
		}),
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("xdp: offloaded program invalid: %w", err)
	}
	return prog, nil
}

// InsnsPerStage is the instruction-store capacity of one stage-equivalent
// of fabric: the soft core retires ~1k instructions per stage.
const InsnsPerStage = 1024

// stagesFor maps program size onto match-action stages with ceiling
// rounding, so an exact multiple of InsnsPerStage fills its stages
// without spilling an off-by-one extra stage (insns % per == 0 boundary):
// stagesFor(1024) == 1, stagesFor(1025) == 2. This is the same rounding
// hls.EstimateProgram applies to every other capacity (LSRAMBlocksFor,
// word counts), so the direct estimate and the HLS estimate agree at the
// boundaries.
func stagesFor(insns int) int {
	s := (insns + InsnsPerStage - 1) / InsnsPerStage
	if s < 1 {
		s = 1
	}
	if s > 4 {
		s = 4
	}
	return s
}

// alignedCost converts an instruction count into the estimator's aligned
// per-primitive cost units (per units each), clamped to the checked-access
// unit's [32, 4096] envelope. The clamps are inclusive so an exact
// boundary count (insns*per == 4096) prices the envelope itself rather
// than rounding past it.
func alignedCost(insns, per int) int {
	c := insns * per
	if c < 32 {
		c = 32
	}
	if c > 4096 {
		c = 4096
	}
	return c
}

// EstimateResources prices the offloaded program directly (without going
// through hls): fixed soft-core cost plus per-instruction increments,
// with the instruction store in LSRAM (one 64-bit word per instruction).
func EstimateResources(p *Program) fpga.Resources {
	insns := len(p.Insns)
	return fpga.Resources{
		LUT4:  18000 + 6*insns,
		FF:    15000 + 4*insns,
		USRAM: 40,
		LSRAM: fpga.LSRAMBlocksFor(insns * 64),
	}
}

// --- Small assembler helpers (for building programs in Go) -----------------

// MovImm sets dst = imm.
func MovImm(dst Reg, imm int64) Insn { return Insn{Op: OpMov, Dst: dst, Imm: imm, UseImm: true} }

// LdH loads a big-endian u16 from pkt[src+off] into dst.
func LdH(dst, src Reg, off int16) Insn { return Insn{Op: OpLdH, Dst: dst, Src: src, Off: off} }

// LdB loads a u8 from pkt[src+off] into dst.
func LdB(dst, src Reg, off int16) Insn { return Insn{Op: OpLdB, Dst: dst, Src: src, Off: off} }

// JEqImm jumps forward by off when dst == imm.
func JEqImm(dst Reg, imm int64, off int16) Insn {
	return Insn{Op: OpJEq, Dst: dst, Imm: imm, UseImm: true, Off: off}
}

// JNeImm jumps forward by off when dst != imm.
func JNeImm(dst Reg, imm int64, off int16) Insn {
	return Insn{Op: OpJNe, Dst: dst, Imm: imm, UseImm: true, Off: off}
}

// Exit returns r0.
func Exit() Insn { return Insn{Op: OpExit} }
