package opt

import "flexsfp/internal/xdp"

// scheduleCycles packs a program's instructions onto an hXDP-style VLIW soft core
// with `width` parallel issue lanes and returns the schedule length in
// cycles — the per-packet occupancy a sequential core needs for the
// program, and therefore the value the optimizer writes into
// ppe.Program.ProgCycles. The unpacked scalar core retires one
// instruction per cycle (len(insns) cycles); packing fills each cycle's
// issue slots, so the schedule approaches ceil(len/width) for
// dependency-light programs.
//
// The greedy in-order packing keeps the hardware's semantics simple:
// all lanes of a bundle read registers before any lane writes, so an
// instruction joins the current bundle unless
//
//   - the bundle is full (width instructions),
//   - it reads a register the bundle writes (RAW),
//   - it writes a register the bundle writes (WAW — lanes commit
//     unordered),
//   - it touches packet memory after the bundle touched packet memory
//     with at least one store (single checked-access port per cycle for
//     mutation ordering; read-after-read shares the cycle),
//   - it is a basic-block leader (a jump target must begin a bundle so
//     control transfers land on cycle boundaries).
//
// WAR is allowed (reads happen first), and a jump or exit seals its
// bundle — the core resolves control at the cycle edge.
func scheduleCycles(insns []xdp.Insn, width int) int {
	if width < 1 {
		width = 1
	}
	leaders := blockLeaders(insns)
	cycles := 0
	lane := 0
	var defs uint16
	var hasStore, hasLoad bool
	flush := func() {
		lane = 0
		defs = 0
		hasStore = false
		hasLoad = false
	}
	for i, in := range insns {
		uses, writes := insnUses(in), insnDef(in)
		memConflict := (isStore(in.Op) && (hasLoad || hasStore)) ||
			(isLoad(in.Op) && hasStore)
		if lane == 0 || lane >= width || (leaders[i] && lane > 0) ||
			uses&defs != 0 || writes&defs != 0 || memConflict {
			cycles++
			flush()
		}
		lane++
		defs |= writes
		hasLoad = hasLoad || isLoad(in.Op)
		hasStore = hasStore || isStore(in.Op)
		if isJump(in.Op) || in.Op == xdp.OpExit {
			flush()
		}
	}
	return cycles
}
