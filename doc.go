// Package flexsfp is the root of the FlexSFP reproduction: a programmable
// SFP+ transceiver model (HotNets '25, "FlexSFP: Rethinking Network
// Intelligence Inside the Cable") with its FPGA resource/power/cost
// models, the three architecture shells, an XDP-like programming model,
// a use-case application catalog, and an embedded control plane.
//
// The root holds no code, only the module's cross-package tests. A cable
// is built in one call by internal/build:
//
//	sim := netsim.New(1)
//	mod, design, err := build.Module(sim, build.ModuleSpec{
//	    Name: "sfp-0", Shell: hls.TwoWayCore, App: "nat",
//	    Config: apps.NATConfig{Mappings: []apps.NATMapping{
//	        {Internal: "192.168.1.10", External: "203.0.113.10"},
//	    }},
//	})
//
// Every table and figure is a registered internal/exp.Experiment, run by
// cmd/flexsfp-bench (-list, -run). See examples/ for self-checking
// scenarios and EXPERIMENTS.md for the paper-versus-model results.
package flexsfp
