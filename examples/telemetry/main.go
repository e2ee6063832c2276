// In-band telemetry: INT-style metadata insertion across a two-hop path
// (§3 "Monitoring and Observability"). Three FlexSFPs cooperate: a
// source pushes the telemetry shim and stamps the first hop, a transit
// module appends its hop, and a sink strips the shim, delivering the
// original frame to the host while exporting the per-hop path records —
// observability the legacy gear in between never had.
//
//	go run ./examples/telemetry
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

	// Build the three-node path: source → transit → sink.
	roles := []struct {
		role string
		id   uint32
	}{
		{"source", 101}, {"transit", 102}, {"sink", 103},
	}
	var mods []*core.Module
	for _, r := range roles {
		mod, _, err := flexsfp.BuildModule(sim, flexsfp.ModuleSpec{
			Name: "int-" + r.role, DeviceID: r.id,
			Shell: flexsfp.TwoWayCore, App: "telemetry",
			Config: map[string]any{"role": r.role, "device_id": r.id},
		})
		if err != nil {
			log.Fatal(err)
		}
		mods = append(mods, mod)
	}

	// Chain them with 10G fibers of different lengths (propagation
	// delays show up in the hop timestamps).
	const tenGig = 10_000_000_000
	link := func(tx *core.Module, txPort core.PortID, deliver func([]byte), prop netsim.Duration) {
		l := netsim.NewLink(sim, tenGig, prop, deliver)
		tx.SetTx(txPort, func(b []byte) { l.Send(b) })
	}
	// source optical → transit edge (500 m), transit optical → sink edge (2 km).
	link(mods[0], core.PortOptical, mods[1].RxEdge, 2500*netsim.Nanosecond)
	link(mods[1], core.PortOptical, mods[2].RxEdge, 10*netsim.Microsecond)
	for _, m := range mods {
		m.SetTx(core.PortEdge, packet.PutBuffer)
	}

	// Receiving host behind the sink.
	var delivered int
	var lastLen int
	mods[2].SetTx(core.PortOptical, func(b []byte) {
		delivered++
		lastLen = len(b)
		packet.PutBuffer(b)
	})

	// Send traffic into the source's edge.
	const frameLen = 256
	gen := trafficgen.New(sim, trafficgen.Config{
		PPS:    100_000,
		Sizes:  []trafficgen.IMIXEntry{{Size: frameLen, Weight: 1}},
		SrcMAC: packet.MustMAC("02:01:00:00:00:01"),
		DstMAC: packet.MustMAC("02:01:00:00:00:02"),
		SrcIP:  netip.MustParseAddr("10.0.0.1"),
		DstIP:  netip.MustParseAddr("10.0.0.2"),
		Flows:  4,
	}, func(b []byte) bool { mods[0].RxEdge(b); return true })
	gen.Run(1000)
	sim.RunFor(50 * netsim.Millisecond)

	fmt.Printf("frames sent: %d, delivered to host: %d (original size restored: %v)\n",
		gen.Sent, delivered, lastLen == frameLen)

	// Collect the paths recorded at the sink via the app's export API.
	collector, ok := mods[2].App().(interface{ Paths() []apps.PathRecord })
	if !ok {
		log.Fatal("sink app does not export paths")
	}
	paths := collector.Paths()
	fmt.Printf("paths collected at sink: %d\n", len(paths))
	if len(paths) > 0 {
		p := paths[0]
		fmt.Println("\nFirst recorded path:")
		prev := uint64(0)
		for i, h := range p.Hops {
			delta := ""
			if i > 0 {
				delta = fmt.Sprintf("  (+%d ns)", h.TimestampNs-prev)
			}
			fmt.Printf("  hop %d: device %d  t=%d ns%s\n", i, h.DeviceID, h.TimestampNs, delta)
			prev = h.TimestampNs
		}
		total := p.Hops[len(p.Hops)-1].TimestampNs - p.Hops[0].TimestampNs
		fmt.Printf("  end-to-end (source→sink PPE): %d ns\n", total)
	}
}
