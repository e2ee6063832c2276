// XDP offload (§4.2): "the developer writes the packet function (e.g.,
// an XDP program); an HLS toolchain converts it to HDL and generates an
// IP core; the build framework integrates this into an architecture
// shell … and emits the SFP bitstream."
//
// This example writes an XDP-style codelet in the eBPF-inspired ISA
// (drop UDP/53 leaving the edge — a crude DNS exfiltration cut-off),
// verifies it, runs the optimizer pass pipeline over the naive emission,
// embeds it in a signed bitstream, boots it in a FlexSFP, and pushes
// traffic through.
//
// The run fails, naming the claim, unless the verifier accepts the
// codelet and exactly the DNS half of the traffic is dropped.
//
//	go run ./examples/xdp-offload
package main

import (
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/opt"
	"flexsfp/internal/packet"
	"flexsfp/internal/xdp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xdp-offload: ")
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run offloads the codelet, sends DNS and HTTPS through it and returns an
// error naming the first claim the run broke.
func run(w io.Writer) error {
	// 1. The packet function, as a naive compiler emits it — with a
	// redundant reload of the EtherType and a scratch register it never
	// reads (the kind of code mechanical templated emission produces).
	prog := xdp.Program{
		Name: "dns-cutoff",
		Insns: []xdp.Insn{
			xdp.LdH(1, 0, 12),        // r1 = EtherType
			xdp.LdH(5, 0, 12),        // naive reload of the same halfword
			xdp.MovImm(6, 0),         // dead scratch init
			xdp.JNeImm(1, 0x0800, 7), // not IPv4 → pass
			xdp.LdB(2, 0, 23),        // r2 = IP protocol
			xdp.JNeImm(2, 17, 5),     // not UDP → pass
			xdp.LdB(3, 0, 14),        // r3 = version/IHL
			{Op: xdp.OpAnd, Dst: 3, Imm: 0x0f, UseImm: true},
			{Op: xdp.OpLsh, Dst: 3, Imm: 2, UseImm: true}, // r3 = IHL bytes
			xdp.LdH(4, 3, 16),    // r4 = dst port (14 + IHL + 2)
			xdp.JEqImm(4, 53, 2), // port 53 → drop
			xdp.MovImm(0, xdp.ActPass),
			xdp.Exit(),
			xdp.MovImm(0, xdp.ActDrop),
			xdp.Exit(),
		},
	}
	if err := prog.Verify(); err != nil {
		return fmt.Errorf("verifier rejected the program: %w", err)
	}
	fmt.Fprintf(w, "verified %q: %d instructions, forward-only control flow\n",
		prog.Name, len(prog.Insns))
	est := xdp.EstimateResources(&prog)
	fmt.Fprintf(w, "hXDP-style core estimate: %d LUT4 / %d FF / %d uSRAM / %d LSRAM\n",
		est.LUT4, est.FF, est.USRAM, est.LSRAM)

	// 2. The optimizer pass pipeline. A naive compiler emission carries
	// redundancy; the passes prove their rewrites behavior-preserving
	// (same verdict on every packet) and cut the soft core's schedule —
	// the unoptimized codelet retires one instruction per cycle, which
	// at 64B frames is slower than the 64-bit datapath streams them.
	_, xrep, err := opt.OptimizeXDP(&prog, opt.Options{})
	if err != nil {
		return fmt.Errorf("optimizer: %w", err)
	}
	fmt.Fprintf(w, "optimizer: %d→%d insns (%d dead writes, %d folded loads), schedule %d→%d cycles\n",
		xrep.InsnsBefore, xrep.InsnsAfter, xrep.DeadWrites, xrep.FoldedLoads,
		xrep.ScalarCycles, xrep.PackedCycles)

	// 3. Package + boot through the standard pipeline, optimizer on
	// (Optimize in the app config packs the program; Optimize in the spec
	// records the pass pipeline in the signed manifest so boot re-checks
	// the optimized structure).
	sim := netsim.New(1)
	mod, design, err := build.Module(sim, build.ModuleSpec{
		Name: "xdp-sfp", DeviceID: 11, Shell: hls.OneWayFilter, App: "xdp",
		Optimize: true,
		Config:   apps.XDPConfig{Program: prog, Direction: "edge-to-optical", Optimize: true},
	})
	if err != nil {
		return fmt.Errorf("booting the codelet: %w", err)
	}
	fmt.Fprintf(w, "booted on %s: shell+app %d LUT4 (%.1f%% peak), %s shell\n",
		design.Target.Name, design.Total.LUT4, design.Fit.Utilization.Max(), design.Shell)

	// 4. Traffic.
	var passed, total int
	mod.SetTx(core.PortOptical, func(b []byte) { passed++; packet.PutBuffer(b) })
	mod.SetTx(core.PortEdge, packet.PutBuffer)
	send := func(dport uint16) {
		total++
		mod.RxEdge(packet.MustBuild(packet.Spec{
			SrcMAC:  packet.MustMAC("02:00:00:00:00:61"),
			DstMAC:  packet.MustMAC("02:00:00:00:00:62"),
			SrcIP:   netip.MustParseAddr("10.0.0.1"),
			DstIP:   netip.MustParseAddr("8.8.8.8"),
			SrcPort: 5555, DstPort: dport, PadTo: 64,
		}))
	}
	for i := 0; i < 10; i++ {
		send(53) // cut off
	}
	for i := 0; i < 10; i++ {
		send(443) // passes
	}
	sim.Run()

	ctr, _ := mod.App().State().Counters("xdp")
	drops, _ := ctr.Read(apps.XDPDrop)
	passes, _ := ctr.Read(apps.XDPPass)
	fmt.Fprintf(w, "\ntraffic: %d sent, %d egressed (XDP: %d pass, %d drop)\n",
		total, passed, passes, drops)
	if passed != 10 || passes != 10 || drops != 10 {
		return fmt.Errorf("%d of %d frames egressed (XDP: %d pass, %d drop), want the 10 to port 443 passed and the 10 to port 53 dropped",
			passed, total, passes, drops)
	}
	fmt.Fprintln(w, "DNS cut-off enforced at the optical edge by an offloaded XDP codelet.")
	return nil
}
