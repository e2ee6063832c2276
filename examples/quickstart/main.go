// Quickstart: compile the paper's NAT case study, boot it in a FlexSFP,
// push traffic through, and print the Table 1-style implementation
// report plus live counters and power.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"

	"flexsfp"
	"flexsfp/internal/apps"
	"flexsfp/internal/core"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/trafficgen"
)

func main() {
	sim := netsim.New(1)

	// 1. Compile the NAT app and boot it in a Two-Way-Core module.
	mod, design, err := flexsfp.BuildModule(sim, flexsfp.ModuleSpec{
		Name: "sfp-0", DeviceID: 1, Shell: flexsfp.TwoWayCore, App: "nat",
		Config: apps.NATConfig{Mappings: []apps.NATMapping{
			{Internal: "192.168.1.10", External: "203.0.113.10"},
			{Internal: "192.168.1.11", External: "203.0.113.11"},
		}},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Implementation report (%s, %s shell):\n", design.Target.Name, design.Shell)
	fmt.Printf("  app      %6d LUT4 %6d FF %4d uSRAM %4d LSRAM\n",
		design.App.LUT4, design.App.FF, design.App.USRAM, design.App.LSRAM)
	fmt.Printf("  shell    %6d LUT4 %6d FF %4d uSRAM %4d LSRAM\n",
		design.ShellRes.LUT4, design.ShellRes.FF, design.ShellRes.USRAM, design.ShellRes.LSRAM)
	fmt.Printf("  total    %6d LUT4 %6d FF %4d uSRAM %4d LSRAM (%.1f%% peak, %s-limited)\n",
		design.Total.LUT4, design.Total.FF, design.Total.USRAM, design.Total.LSRAM,
		design.Fit.Utilization.Max(), design.Fit.Limiting)
	fmt.Printf("  timing   %.2f MHz required, %.2f MHz achievable\n",
		float64(design.ClockHz)/1e6, design.AchievableClockMHz)

	// 2. Wire the optical side to a counter and translate some traffic.
	var translated, total int
	var v packet.View
	mod.SetTx(core.PortOptical, func(b []byte) {
		total++
		if v.Parse(b) && v.IsIPv4 {
			if src := netip.AddrFrom4([4]byte(v.SrcIPv4())); src == netip.MustParseAddr("203.0.113.10") ||
				src == netip.MustParseAddr("203.0.113.11") {
				translated++
			}
		}
		packet.PutBuffer(b)
	})
	mod.SetTx(core.PortEdge, packet.PutBuffer)

	gen := trafficgen.New(sim, trafficgen.Config{
		PPS:   1_000_000,
		SrcIP: netip.MustParseAddr("192.168.1.10"),
		DstIP: netip.MustParseAddr("198.51.100.1"),
	}, func(b []byte) bool { mod.RxEdge(b); return true })
	gen.Run(10000)
	sim.RunFor(20 * netsim.Millisecond)

	st := mod.Engine().Stats()
	fmt.Printf("\nTraffic: sent %d frames, %d egressed, %d source-translated\n",
		gen.Sent, total, translated)
	fmt.Printf("Engine: in=%d pass=%d drop=%d queue-drop=%d\n",
		st.In, st.Pass, st.Drop, st.QueueDrop)
	fmt.Printf("Power: %.3f W (idle floor %.3f W, SFP+ envelope %.1f W)\n",
		mod.PowerW(), 0.92, core.ThermalEnvelopeW)

	nat, _ := mod.App().State().Table("nat")
	fmt.Printf("NAT table: %d/%d entries\n", nat.Len(), apps.NATTableSize)
	ddm := mod.DDM()
	fmt.Printf("DDM: %.1f°C, TX %.1f dBm, bias %.1f mA\n",
		ddm.TemperatureC, ddm.TxPowerDBm, ddm.TxBiasMA)
}
