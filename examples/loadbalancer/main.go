// Load balancing at the optical boundary (§3 "Packet Transformation and
// Forwarding"): a FlexSFP in front of a rack runs a Katran-style L4 load
// balancer, hashing flows over a VIP to four backends with a symmetric
// flow hash — no SmartNIC, no host CPU in the path.
//
//	go run ./examples/loadbalancer
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

	backends := []apps.LBBackend{
		{IP: "10.0.1.1", MAC: "02:be:00:00:00:01"},
		{IP: "10.0.1.2", MAC: "02:be:00:00:00:02"},
		{IP: "10.0.1.3", MAC: "02:be:00:00:00:03"},
		{IP: "10.0.1.4", MAC: "02:be:00:00:00:04"},
	}
	mod, design, err := flexsfp.BuildModule(sim, flexsfp.ModuleSpec{
		Name: "lb-sfp", DeviceID: 9, Shell: flexsfp.TwoWayCore, App: "lb",
		Config: apps.LBConfig{VIP: "203.0.113.100", Backends: backends},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LB design: %d LUT4, %d LSRAM blocks, %.1f%% of %s\n",
		design.Total.LUT4, design.Total.LSRAM,
		design.Fit.Utilization.Max(), design.Target.Name)

	// Count flows per backend at the optical egress.
	perBackend := map[netip.Addr]map[uint16]bool{}
	var v packet.View
	mod.SetTx(core.PortOptical, func(b []byte) {
		defer packet.PutBuffer(b)
		if !v.Parse(b) || !v.IsIPv4 || v.Proto != packet.IPProtocolTCP || v.L4Off == 0 {
			return
		}
		dst := netip.AddrFrom4([4]byte(v.DstIPv4()))
		if perBackend[dst] == nil {
			perBackend[dst] = map[uint16]bool{}
		}
		perBackend[dst][v.SrcPort] = true
	})
	mod.SetTx(core.PortEdge, packet.PutBuffer)

	// 2000 client flows toward the VIP.
	gen := trafficgen.New(sim, trafficgen.Config{
		PPS:     1_000_000,
		Proto:   packet.IPProtocolTCP,
		Flows:   2000,
		SrcMAC:  packet.MustMAC("02:cc:00:00:00:01"),
		DstMAC:  mod.MAC(),
		SrcIP:   netip.MustParseAddr("198.51.100.7"),
		DstIP:   netip.MustParseAddr("203.0.113.100"),
		DstPort: 443,
	}, func(b []byte) bool { mod.RxEdge(b); return true })
	gen.Run(20000)
	sim.RunFor(50 * netsim.Millisecond)

	fmt.Printf("\n%d frames across 2000 flows steered:\n", gen.Sent)
	totalFlows := 0
	for _, be := range backends {
		ip := netip.MustParseAddr(be.IP)
		n := len(perBackend[ip])
		totalFlows += n
		bar := ""
		for i := 0; i < n/20; i++ {
			bar += "#"
		}
		fmt.Printf("  %s: %4d flows %s\n", be.IP, n, bar)
	}
	fmt.Printf("  total %d distinct flows (stickiness: every flow maps to exactly one backend)\n", totalFlows)

	st := mod.Engine().Stats()
	lb, _ := mod.App().State().Counters("lb")
	steered, _ := lb.Read(apps.LBSteered)
	fmt.Printf("\nengine: in=%d pass=%d; steered=%d; power %.2f W\n",
		st.In, st.Pass, steered, mod.PowerW())
}
