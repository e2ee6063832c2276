package apps

import (
	"encoding/json"
	"fmt"

	"flexsfp/internal/opt"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/xdp"
)

// XDPConfig carries a verified XDP program in the bitstream manifest:
// the §4.2 workflow where "the developer writes the packet function
// (e.g., an XDP program)" and the toolchain integrates it into the shell.
type XDPConfig struct {
	Program xdp.Program `json:"program"`
	// Direction limits execution (default both).
	Direction string `json:"direction,omitempty"`
	// Optimize runs the opt pass pipeline over the program at
	// configuration time: redundancy elimination shrinks the instruction
	// store, and VLIW packing (opt.OptimizeXDP) replaces the scalar
	// one-instruction-per-clock service time with the packed schedule
	// length, raising CapacityPPS for instruction-bound programs.
	Optimize bool `json:"optimize,omitempty"`
}

// XDP counter indexes (bank "xdp").
const (
	XDPPass = iota
	XDPDrop
	XDPTx
	XDPRedirect
	XDPAborted
	xdpCounters
)

type xdpApp struct {
	prog  *ppe.Program
	state *ppe.State
	ctr   *ppe.CounterBank
	vm    *xdp.Program
	dir   string
}

// NewXDPApp builds an unconfigured XDP host app; Configure supplies the
// program. Before configuration the app refuses to run (structure-only
// placeholder).
func NewXDPApp() *xdpApp {
	a := &xdpApp{state: ppe.NewState()}
	a.ctr = a.state.AddCounters("xdp", xdpCounters)
	a.prog = &ppe.Program{
		Name:        "xdp",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet},
		Stages:      1,
		Handler:     ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict { return ppe.VerdictDrop }),
	}
	return a
}

// Program implements core.App.
func (a *xdpApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *xdpApp) State() *ppe.State { return a.state }

// Configure implements core.App: it verifies the embedded program and
// rebuilds the declarative structure from it (instruction count drives
// the synthesis estimate), keeping the handler counter-instrumented.
func (a *xdpApp) Configure(config []byte) error {
	if len(config) == 0 {
		return fmt.Errorf("xdp: config with a program is required")
	}
	var cfg XDPConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("xdp: %w", err)
	}
	vm := &cfg.Program
	packedCycles := 0
	if cfg.Optimize {
		optimized, rep, err := opt.OptimizeXDP(vm, opt.Options{})
		if err != nil {
			return err
		}
		vm = optimized
		packedCycles = rep.PackedCycles
	}
	offloaded, err := xdp.Offload(vm)
	if err != nil {
		return err
	}
	if packedCycles > 0 {
		// The packed VLIW schedule, not the scalar retire rate, sets the
		// soft core's per-packet occupancy.
		offloaded.ProgCycles = packedCycles
	}
	a.vm = vm
	a.dir = cfg.Direction
	// Keep the PPE app name stable ("xdp") so the registry resolves it,
	// but inherit the offload's structure.
	offloaded.Name = "xdp"
	offloaded.Actions = append(offloaded.Actions,
		ppe.ActionSpec{Kind: ppe.ActionCounterBank, Count: xdpCounters})
	offloaded.Handler = ppe.HandlerFunc(a.handle)
	a.prog = offloaded
	return nil
}

func (a *xdpApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if !dirEnabled(a.dir, ctx.Dir) {
		return ppe.VerdictPass
	}
	act, err := a.vm.Run(ctx.Data)
	if err != nil {
		a.ctr.Inc(XDPAborted, len(ctx.Data))
		return ppe.VerdictDrop
	}
	switch act {
	case xdp.ActPass:
		a.ctr.Inc(XDPPass, len(ctx.Data))
		return ppe.VerdictPass
	case xdp.ActTx:
		a.ctr.Inc(XDPTx, len(ctx.Data))
		return ppe.VerdictTx
	case xdp.ActRedirect:
		a.ctr.Inc(XDPRedirect, len(ctx.Data))
		return ppe.VerdictRedirect
	default:
		a.ctr.Inc(XDPDrop, len(ctx.Data))
		return ppe.VerdictDrop
	}
}
