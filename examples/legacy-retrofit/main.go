// Legacy retrofit: the §2.1 telecom scenario. A fixed-function L2
// aggregation switch connects three FTTH subscribers to a metro uplink.
// The operator needs per-subscriber policies — IPv6 filtering, DoH
// blocking, rate limiting — that the switch cannot do. Instead of
// replacing the chassis, each subscriber port's SFP is swapped for a
// FlexSFP running the right app: a drop-in upgrade with no switch-OS
// change.
//
// The run fails, naming the claim, if a port passes or drops the wrong
// traffic or the fabric leaks one subscriber's traffic to another.
//
//	go run ./examples/legacy-retrofit
package main

import (
	"errors"
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
	"flexsfp/internal/packet"
	"flexsfp/internal/switchsim"
	"flexsfp/internal/trafficgen"
)

const tenGig = 10_000_000_000

// Subscriber C's policer and the flood it faces.
const (
	policeBps   = 50_000_000
	policeBurst = 1_000_000
	floodBps    = 200_000_000
	floodWindow = 100 * netsim.Millisecond
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("legacy-retrofit: ")
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the retrofitted switch, drives each policy and returns an
// error naming the first claim the run broke.
func run(w io.Writer) error {
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
			DefaultRateBps: policeBps, DefaultBurstBits: policeBurst,
		}, "50 Mb/s per-subscriber policing"},
	}

	// Uplink keeps its standard SFP; subscriber ports get FlexSFPs.
	sw.Cage(0).Insert(core.NewStandardSFP(sim))
	switchsim.Fiber(sim, sw.Cage(0), uplink, tenGig, 1000)
	for i, p := range policies {
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name: fmt.Sprintf("flex-port-%d", i+1), DeviceID: uint32(i + 1),
			Shell: hls.TwoWayCore, App: p.app, Config: p.cfg,
		})
		if err != nil {
			return fmt.Errorf("building port %d's %s module: %w", i+1, p.app, err)
		}
		sw.Cage(i + 1).Insert(mod)
		switchsim.Fiber(sim, sw.Cage(i+1), subs[i], tenGig, 5000)
		fmt.Fprintf(w, "port %d: FlexSFP running %q (%s)\n", i+1, p.app, p.desc)
	}

	// Prime MAC learning from every host, the uplink included, so the
	// fabric forwards upstream traffic instead of flooding it to the
	// other subscribers.
	for _, h := range append([]*switchsim.Host{uplink}, subs...) {
		dst := uplink.MAC
		if h == uplink {
			dst = packet.MustMAC("ff:ff:ff:ff:ff:ff")
		}
		h.Send(packet.MustBuild(packet.Spec{
			SrcMAC: h.MAC, DstMAC: dst,
			SrcIP: netip.MustParseAddr("10.0.0.9"), DstIP: netip.MustParseAddr("10.0.0.1"),
			SrcPort: 1, DstPort: 2, PadTo: 64,
		}))
	}
	sim.Run()

	// reaches sends frame from h and reports whether the uplink got it.
	reaches := func(h *switchsim.Host, frame []byte) bool {
		before := uplink.RxFrames
		h.Send(frame)
		sim.Run()
		return uplink.RxFrames > before
	}

	fmt.Fprintln(w, "\n--- Policy enforcement ---")

	// Subscriber A tries IPv6: dropped at the port.
	v6 := reaches(subs[0], packet.MustBuild(packet.Spec{
		SrcMAC: subs[0].MAC, DstMAC: uplink.MAC,
		SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.MustParseAddr("2001:db8::99"),
		SrcPort: 1000, DstPort: 80, PadTo: 64,
	}))
	fmt.Fprintf(w, "subscriber-a IPv6 packet:    reached uplink: %v (policy: filtered)\n", v6)

	// Subscriber A's IPv4 still works.
	v4 := reaches(subs[0], packet.MustBuild(packet.Spec{
		SrcMAC: subs[0].MAC, DstMAC: uplink.MAC,
		SrcIP: netip.MustParseAddr("100.64.0.1"), DstIP: netip.MustParseAddr("198.51.100.1"),
		SrcPort: 1000, DstPort: 80, PadTo: 64,
	}))
	fmt.Fprintf(w, "subscriber-a IPv4 packet:    reached uplink: %v\n", v4)

	// Subscriber B queries a blocked tracker domain: dropped.
	q := &packet.DNS{ID: 7, RD: true, Questions: []packet.DNSQuestion{
		{Name: "telemetry.tracker.example", Type: packet.DNSTypeA, Class: packet.DNSClassIN}}}
	ip := &packet.IPv4{TTL: 64, Protocol: packet.IPProtocolUDP,
		SrcIP: netip.MustParseAddr("100.64.0.2"), DstIP: netip.MustParseAddr("9.9.9.9")}
	udp := &packet.UDP{SrcPort: 5353, DstPort: packet.PortDNS}
	if err := udp.SetNetworkLayerForChecksum(ip.SrcIP, ip.DstIP); err != nil {
		return fmt.Errorf("building the DNS query: %w", err)
	}
	buf := packet.NewSerializeBuffer()
	if err := packet.SerializeLayers(buf,
		packet.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&packet.Ethernet{SrcMAC: subs[1].MAC, DstMAC: uplink.MAC, EtherType: packet.EtherTypeIPv4},
		ip, udp, q); err != nil {
		return fmt.Errorf("building the DNS query: %w", err)
	}
	dns := reaches(subs[1], append([]byte(nil), buf.Bytes()...))
	fmt.Fprintf(w, "subscriber-b tracker DNS:    reached uplink: %v (policy: blocked)\n", dns)

	// Subscriber C blasts 200 Mb/s against a 50 Mb/s policy. Subscribers
	// A and B count any of C's frames that reach them.
	var leaked int
	for _, s := range subs[:2] {
		s.OnFrame = func(b []byte) {
			if packet.MAC(b[6:12]) == subs[2].MAC {
				leaked++
			}
		}
	}
	gen := trafficgen.New(sim, trafficgen.Config{
		PPS:    float64(floodBps) / (1500 * 8),
		Sizes:  []trafficgen.IMIXEntry{{Size: 1500, Weight: 1}},
		SrcMAC: subs[2].MAC, DstMAC: uplink.MAC,
		SrcIP: netip.MustParseAddr("100.64.0.3"), DstIP: netip.MustParseAddr("198.51.100.1"),
	}, func(b []byte) bool { return subs[2].Send(b) })
	before := uplink.RxBytes
	gen.Run(0)
	sim.RunFor(floodWindow)
	gen.Stop()
	sim.Run()
	window := floodWindow.Seconds()
	passedBits := float64(uplink.RxBytes-before) * 8
	maxBits := policeBps*window + policeBurst
	fmt.Fprintf(w, "subscriber-c 200 Mb/s flood: %.1f Mb/s passed the policer (policy: 50 Mb/s + 1 Mbit burst, at most %.1f Mb/s over %.0f ms)\n",
		passedBits/window/1e6, maxBits/window/1e6, window*1e3)
	fmt.Fprintf(w, "subscriber-c frames seen by subscribers a and b: %d\n", leaked)

	// Observability the legacy switch never had: per-port PPE counters.
	fmt.Fprintln(w, "\n--- Per-port visibility (read from each module's engine) ---")
	for i := 1; i <= 3; i++ {
		mod := sw.Cage(i).Transceiver().(*core.Module)
		st := mod.Engine().Stats()
		fmt.Fprintf(w, "port %d (%s): in=%d pass=%d drop=%d; module power %.2f W\n",
			i, mod.App().Program().Name, st.In, st.Pass, st.Drop, mod.PowerW())
	}
	fmt.Fprintf(w, "switch fabric: %d forwarded, %d flooded, %d dropped; MAC table %d entries\n",
		sw.Stats().Forwarded, sw.Stats().Flooded, sw.Stats().Dropped, sw.MACTableSize())
	fmt.Fprintf(w, "total transceiver power: %.2f W across %d ports\n",
		sw.TotalTransceiverPowerW(), sw.Ports())

	switch {
	case v6:
		return errors.New("subscriber-a's IPv6 packet reached the uplink past the IPv4-only policy")
	case !v4:
		return errors.New("subscriber-a's IPv4 packet did not reach the uplink")
	case dns:
		return errors.New("subscriber-b's tracker DNS query reached the uplink past the blocklist")
	case passedBits > maxBits:
		return fmt.Errorf("the policer passed %.0f bits in %v, above rate × window + burst = %.0f", passedBits, floodWindow, maxBits)
	case passedBits < policeBps*window:
		return fmt.Errorf("the policer passed %.0f bits in %v, below its rate × window = %.0f", passedBits, floodWindow, policeBps*window)
	case leaked > 0:
		return fmt.Errorf("subscribers a and b received %d of subscriber-c's frames: the fabric flooded upstream traffic", leaked)
	}
	return nil
}
