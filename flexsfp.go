// Package flexsfp is the public facade of the FlexSFP reproduction: a
// programmable SFP+ transceiver model (HotNets '25, "FlexSFP: Rethinking
// Network Intelligence Inside the Cable") with its FPGA resource/power/
// cost models, the three architecture shells, an XDP-like programming
// model, a use-case application catalog, and an embedded control plane.
//
// Quick start:
//
//	sim := netsim.New(1) // the simulation world: flexsfp/internal/netsim
//	mod, design, err := flexsfp.BuildModule(sim, flexsfp.ModuleSpec{
//	    Name: "sfp-0", Shell: flexsfp.TwoWayCore, App: "nat",
//	    Config: apps.NATConfig{Mappings: []apps.NATMapping{
//	        {Internal: "192.168.1.10", External: "203.0.113.10"},
//	    }},
//	})
//
// The experiment harness lives in internal/exp: every table and figure
// is a registered internal/exp.Experiment, enumerated and run uniformly
// by cmd/flexsfp-bench (-list, -run). See examples/ for complete
// scenarios and EXPERIMENTS.md for the paper-versus-model results.
package flexsfp

import (
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
)

// Re-exported architecture shells (§4.1, Figure 1) the examples build
// on; the third, hls.ActiveCore, is chosen through flexsfpd's -shell.
const (
	OneWayFilter = hls.OneWayFilter
	TwoWayCore   = hls.TwoWayCore
)

// Baseline operating point of the prototype (§5.1).
const (
	BaseClockHz      = build.BaseClockHz
	BaseDatapathBits = build.BaseDatapathBits
)

// ModuleSpec describes a module to build and boot in one call.
type ModuleSpec = build.ModuleSpec

// DefaultAuthKey is the development fleet key used when none is given.
var DefaultAuthKey = build.DefaultAuthKey

// BuildModule compiles the app, provisions a module with the bitstream in
// flash slot 1, and boots it. It returns the running module and the
// implementation report.
func BuildModule(sim *netsim.Simulator, spec ModuleSpec) (*core.Module, *hls.Design, error) {
	return build.Module(sim, spec)
}
