// Legacy retrofit: the §2.1 telecom scenario. A fixed-function L2
// aggregation switch connects three FTTH subscribers to a metro uplink.
// The operator needs per-subscriber policies — IPv6 filtering, DoH
// blocking, rate limiting — that the switch cannot do. Instead of
// replacing the chassis, each subscriber port's SFP is swapped for a
// FlexSFP running the right app: a drop-in upgrade with no switch-OS
// change.
//
//	go run ./examples/legacy-retrofit
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
	"flexsfp/internal/switchsim"
	"flexsfp/internal/trafficgen"
)

const tenGig = 10_000_000_000

func main() {
	sim := netsim.New(1)

	// Legacy switch: port 0 = uplink, ports 1-3 = subscribers.
	sw := switchsim.New(sim, 4)
	uplink := switchsim.NewHost("metro-core", packet.MustMAC("02:ff:00:00:00:01"))
	subs := []*switchsim.Host{
		switchsim.NewHost("subscriber-a", packet.MustMAC("02:aa:00:00:00:01")),
		switchsim.NewHost("subscriber-b", packet.MustMAC("02:aa:00:00:00:02")),
		switchsim.NewHost("subscriber-c", packet.MustMAC("02:aa:00:00:00:03")),
	}

	// Per-subscriber policy, each as one FlexSFP app.
	policies := []struct {
		app  string
		cfg  any
		desc string
	}{
		{"sanitize", apps.SanitizeConfig{DropIPv6: true, VerifyChecksums: true},
			"IPv4-only access + malformed-packet filtering"},
		{"dohblock", apps.DoHBlockConfig{
			BlockedDomains: []string{"ads.example", "tracker.example"},
			ResolverIPs:    []string{"1.1.1.1"},
		}, "DNS/DoH blocking"},
		{"ratelimit", apps.RateLimitConfig{
			DefaultRateBps: 50_000_000, DefaultBurstBits: 1_000_000,
		}, "50 Mb/s per-subscriber policing"},
	}

	// Uplink keeps its standard SFP; subscriber ports get FlexSFPs.
	sw.Cage(0).Insert(newStandardSFP(sim))
	switchsim.Fiber(sim, sw.Cage(0), uplink, tenGig, 1000)
	for i, p := range policies {
		mod, _, err := flexsfp.BuildModule(sim, flexsfp.ModuleSpec{
			Name: fmt.Sprintf("flex-port-%d", i+1), DeviceID: uint32(i + 1),
			Shell: flexsfp.TwoWayCore, App: p.app, Config: p.cfg,
		})
		if err != nil {
			log.Fatal(err)
		}
		sw.Cage(i + 1).Insert(mod)
		switchsim.Fiber(sim, sw.Cage(i+1), subs[i], tenGig, 5000)
		fmt.Printf("port %d: FlexSFP running %q (%s)\n", i+1, p.app, p.desc)
	}

	// Prime MAC learning.
	for _, s := range subs {
		s.Send(packet.MustBuild(packet.Spec{
			SrcMAC: s.MAC, DstMAC: uplink.MAC,
			SrcIP: netip.MustParseAddr("10.0.0.9"), DstIP: netip.MustParseAddr("10.0.0.1"),
			SrcPort: 1, DstPort: 2, PadTo: 64,
		}))
	}
	sim.Run()
	uplinkBase := uplink.RxFrames

	fmt.Println("\n--- Policy enforcement ---")

	// Subscriber A tries IPv6: dropped at the port.
	subs[0].Send(packet.MustBuild(packet.Spec{
		SrcMAC: subs[0].MAC, DstMAC: uplink.MAC,
		SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.MustParseAddr("2001:db8::99"),
		SrcPort: 1000, DstPort: 80, PadTo: 64,
	}))
	sim.Run()
	fmt.Printf("subscriber-a IPv6 packet:    reached uplink: %v (policy: filtered)\n",
		uplink.RxFrames > uplinkBase)

	// Subscriber A's IPv4 still works.
	subs[0].Send(packet.MustBuild(packet.Spec{
		SrcMAC: subs[0].MAC, DstMAC: uplink.MAC,
		SrcIP: netip.MustParseAddr("100.64.0.1"), DstIP: netip.MustParseAddr("198.51.100.1"),
		SrcPort: 1000, DstPort: 80, PadTo: 64,
	}))
	sim.Run()
	fmt.Printf("subscriber-a IPv4 packet:    reached uplink: %v\n", uplink.RxFrames > uplinkBase)
	uplinkBase = uplink.RxFrames

	// Subscriber B queries a blocked tracker domain: dropped.
	q := &packet.DNS{ID: 7, RD: true, Questions: []packet.DNSQuestion{
		{Name: "telemetry.tracker.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN}}}
	ip := &packet.IPv4{TTL: 64, Protocol: packet.IPProtocolUDP,
		SrcIP: netip.MustParseAddr("100.64.0.2"), DstIP: netip.MustParseAddr("9.9.9.9")}
	udp := &packet.UDP{SrcPort: 5353, DstPort: packet.PortDNS}
	if err := udp.SetNetworkLayerForChecksum(ip.SrcIP, ip.DstIP); err != nil {
		log.Fatal(err)
	}
	buf := packet.NewSerializeBuffer()
	if err := packet.SerializeLayers(buf,
		packet.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&packet.Ethernet{SrcMAC: subs[1].MAC, DstMAC: uplink.MAC, EtherType: packet.EtherTypeIPv4},
		ip, udp, q); err != nil {
		log.Fatal(err)
	}
	subs[1].Send(append([]byte(nil), buf.Bytes()...))
	sim.Run()
	fmt.Printf("subscriber-b tracker DNS:    reached uplink: %v (policy: blocked)\n",
		uplink.RxFrames > uplinkBase)

	// Subscriber C blasts 200 Mb/s against a 50 Mb/s policy.
	gen := trafficgen.New(sim, trafficgen.Config{
		PPS:    200_000_000.0 / (1500 * 8), // 200 Mb/s of 1500B frames
		Sizes:  []trafficgen.IMIXEntry{{Size: 1500, Weight: 1}},
		SrcMAC: subs[2].MAC, DstMAC: uplink.MAC,
		SrcIP: netip.MustParseAddr("100.64.0.3"), DstIP: netip.MustParseAddr("198.51.100.1"),
	}, func(b []byte) bool { return subs[2].Send(b) })
	before := uplink.RxBytes
	gen.Run(0)
	sim.RunFor(100 * netsim.Millisecond)
	gen.Stop()
	sim.Run()
	gotMbps := float64(uplink.RxBytes-before) * 8 / 0.1 / 1e6
	fmt.Printf("subscriber-c 200 Mb/s flood: %.1f Mb/s passed the policer (policy: 50 Mb/s)\n", gotMbps)

	// Observability the legacy switch never had: per-port PPE counters.
	fmt.Println("\n--- Per-port visibility (read from each module's engine) ---")
	for i := 1; i <= 3; i++ {
		mod, ok := sw.Cage(i).Transceiver().(*core.Module)
		if !ok {
			continue
		}
		st := mod.Engine().Stats()
		fmt.Printf("port %d (%s): in=%d pass=%d drop=%d; module power %.2f W\n",
			i, mod.App().Program().Name, st.In, st.Pass, st.Drop, mod.PowerW())
	}
	fmt.Printf("switch fabric: %d forwarded, %d flooded, %d dropped; MAC table %d entries\n",
		sw.Stats().Forwarded, sw.Stats().Flooded, sw.Stats().Dropped, sw.MACTableSize())
	fmt.Printf("total transceiver power: %.2f W across %d ports\n",
		sw.TotalTransceiverPowerW(), sw.Ports())
}

func newStandardSFP(sim *netsim.Simulator) switchsim.Transceiver {
	return core.NewStandardSFP(sim)
}
