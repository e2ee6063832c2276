package apps

import (
	"net/netip"
	"testing"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// --- ARP-spoof guard ---------------------------------------------------------

func arpFrame(t *testing.T, srcMAC, senderMAC packet.MAC, senderIP string) []byte {
	t.Helper()
	b, err := packet.BuildARP(packet.ARPSpec{
		SrcMAC:    srcMAC,
		SenderMAC: senderMAC,
		SenderIP:  netip.MustParseAddr(senderIP),
		TargetIP:  netip.MustParseAddr("10.0.0.254"),
		PadTo:     64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestARPGuardDropsSpoofedSender(t *testing.T) {
	a := NewARPGuard()
	cfg := ARPGuardConfig{Bindings: []ARPBinding{{IP: "10.0.0.1", MAC: macHost.String()}}}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}

	if v, _ := run(a.prog.Handler, arpFrame(t, macHost, macHost, "10.0.0.1"), ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("legitimate ARP dropped")
	}
	// Attacker claims the bound IP from its own MAC.
	if v, _ := run(a.prog.Handler, arpFrame(t, macGW, macGW, "10.0.0.1"), ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("spoofed sender IP passed")
	}
	// L2 source and ARP sender hardware address must agree.
	if v, _ := run(a.prog.Handler, arpFrame(t, macGW, macHost, "10.0.0.1"), ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("ethernet/ARP sender MAC mismatch passed")
	}
	// Unknown sender passes in the default (non-strict) mode.
	if v, _ := run(a.prog.Handler, arpFrame(t, macGW, macGW, "10.0.0.99"), ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("unknown sender dropped without strict mode")
	}
	// Duplicate-address-detection probes (sender 0.0.0.0) are exempt.
	if v, _ := run(a.prog.Handler, arpFrame(t, macGW, macGW, "0.0.0.0"), ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("DAD probe dropped")
	}
	// Non-ARP traffic is not the guard's business.
	udp := udpFrame(t, ipInt, ipSrv, 1000, 2000)
	if v, _ := run(a.prog.Handler, udp, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("non-ARP frame dropped")
	}

	if n, _ := a.ctr.Read(ARPGuardSpoofDropped); n != 2 {
		t.Errorf("spoof counter = %d, want 2", n)
	}
}

func TestARPGuardStrictMode(t *testing.T) {
	a := NewARPGuard()
	cfg := ARPGuardConfig{
		Bindings: []ARPBinding{{IP: "10.0.0.1", MAC: macHost.String()}},
		Strict:   true,
	}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	if v, _ := run(a.prog.Handler, arpFrame(t, macGW, macGW, "10.0.0.99"), ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("unknown sender passed in strict mode")
	}
	if n, _ := a.ctr.Read(ARPGuardUnknownDropped); n != 1 {
		t.Errorf("unknown counter = %d, want 1", n)
	}
	// The untrusted direction filter leaves the trusted side alone.
	if v, _ := run(a.prog.Handler, arpFrame(t, macGW, macGW, "10.0.0.99"), ppe.DirOpticalToEdge); v != ppe.VerdictPass {
		t.Error("trusted-side ARP dropped")
	}
}

// --- DHCP snooping -----------------------------------------------------------

func dhcpFrame(t *testing.T, op uint8, mt packet.DHCPMsgType, yiaddr, ciaddr string, chaddr packet.MAC, sport, dport uint16) []byte {
	t.Helper()
	msg := packet.DHCPv4{
		Op: op, XID: 0xcafe, ClientMAC: chaddr,
		YourIP:   netip.MustParseAddr(yiaddr),
		ClientIP: netip.MustParseAddr(ciaddr),
		Options:  []packet.DHCPOption{{Code: packet.DHCPOptMsgType, Data: []byte{byte(mt)}}},
	}
	pl, err := msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW,
		SrcIP: ipSrv, DstIP: ipInt,
		Proto: packet.IPProtocolUDP, SrcPort: sport, DstPort: dport,
		Payload: pl,
	})
}

func TestDHCPSnoopLearnsAndBlocksRogue(t *testing.T) {
	a := NewDHCPSnoop()
	if err := a.Configure(mustJSON(t, DHCPSnoopConfig{DropUntrustedRelease: true})); err != nil {
		t.Fatal(err)
	}

	ack := dhcpFrame(t, packet.DHCPOpReply, packet.DHCPAck, "10.0.0.42", "0.0.0.0", macHost,
		packet.PortDHCPServer, packet.PortDHCPClient)

	// A server ACK from the trusted (optical) side installs the lease.
	if v, _ := run(a.prog.Handler, ack, ppe.DirOpticalToEdge); v != ppe.VerdictPass {
		t.Error("trusted ACK dropped")
	}
	mac, ok := a.leases.Lookup([]byte{10, 0, 0, 42})
	if !ok {
		t.Fatal("lease not learned from trusted ACK")
	}
	if packet.MAC(mac) != macHost {
		t.Errorf("learned MAC %v, want %v", packet.MAC(mac), macHost)
	}

	// The same server message arriving from the edge is a rogue server.
	if v, _ := run(a.prog.Handler, ack, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("rogue server ACK passed")
	}

	// A spoofed RELEASE for the learned lease from a different client MAC
	// is a lease-starvation attempt.
	spoofRel := dhcpFrame(t, packet.DHCPOpRequest, packet.DHCPRelease, "0.0.0.0", "10.0.0.42", macGW,
		packet.PortDHCPClient, packet.PortDHCPServer)
	if v, _ := run(a.prog.Handler, spoofRel, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("spoofed RELEASE passed")
	}
	// The real owner may release.
	ownRel := dhcpFrame(t, packet.DHCPOpRequest, packet.DHCPRelease, "0.0.0.0", "10.0.0.42", macHost,
		packet.PortDHCPClient, packet.PortDHCPServer)
	if v, _ := run(a.prog.Handler, ownRel, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("owner's RELEASE dropped")
	}

	// Client DISCOVER from the edge is ordinary traffic.
	disc := dhcpFrame(t, packet.DHCPOpRequest, packet.DHCPDiscover, "0.0.0.0", "0.0.0.0", macHost,
		packet.PortDHCPClient, packet.PortDHCPServer)
	if v, _ := run(a.prog.Handler, disc, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("client DISCOVER dropped")
	}
	// Non-DHCP UDP is untouched.
	if v, _ := run(a.prog.Handler, udpFrame(t, ipInt, ipSrv, 1000, 2000), ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("non-DHCP frame dropped")
	}

	if n, _ := a.ctr.Read(DHCPSnoopLearned); n != 1 {
		t.Errorf("learned counter = %d, want 1", n)
	}
	if n, _ := a.ctr.Read(DHCPSnoopRogueDropped); n != 1 {
		t.Errorf("rogue counter = %d, want 1", n)
	}
	if n, _ := a.ctr.Read(DHCPSnoopReleaseDropped); n != 1 {
		t.Errorf("release counter = %d, want 1", n)
	}
}

// --- DNS blocklist -----------------------------------------------------------

func TestDNSBlockDropsBlockedNames(t *testing.T) {
	a := NewDNSBlock()
	cfg := DNSBlockConfig{Domains: []string{"ads.example"}}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}

	if v, _ := run(a.prog.Handler, dnsQueryFrame(t, "ads.example"), ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("exact blocked name passed")
	}
	if v, _ := run(a.prog.Handler, dnsQueryFrame(t, "tracker.ads.example"), ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("subdomain of blocked name passed")
	}
	// The view lowercases labels during extraction.
	if v, _ := run(a.prog.Handler, dnsQueryFrame(t, "ADS.Example"), ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("case variant passed")
	}
	if v, _ := run(a.prog.Handler, dnsQueryFrame(t, "good.example"), ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("innocent query dropped")
	}
	// Responses and off-direction traffic pass.
	if v, _ := run(a.prog.Handler, dnsQueryFrame(t, "ads.example"), ppe.DirOpticalToEdge); v != ppe.VerdictPass {
		t.Error("off-direction query dropped")
	}
	if v, _ := run(a.prog.Handler, udpFrame(t, ipInt, ipSrv, 1000, 2000), ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("non-DNS frame dropped")
	}

	if n, _ := a.ctr.Read(DNSBlockDropped); n != 3 {
		t.Errorf("dropped counter = %d, want 3", n)
	}
	if n, _ := a.ctr.Read(DNSBlockPassed); n != 1 {
		t.Errorf("passed counter = %d, want 1", n)
	}
}

// The dnsblock handler is the hardware fast-path model: steady-state
// processing must not allocate, query or not.
func TestDNSBlockHandlerZeroAlloc(t *testing.T) {
	a := NewDNSBlock()
	if err := a.Configure(mustJSON(t, DNSBlockConfig{Domains: []string{"ads.example"}})); err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		dnsQueryFrame(t, "good.example"),
		dnsQueryFrame(t, "a.very.long.sub.domain.of.ads.example"),
		udpFrame(t, ipInt, ipSrv, 1000, 2000),
	}
	ctx := &ppe.Ctx{Dir: ppe.DirEdgeToOptical}
	for _, f := range frames {
		allocs := testing.AllocsPerRun(200, func() {
			ctx.Data = f
			a.handle(ctx)
		})
		if allocs != 0 {
			t.Errorf("handler allocates %.1f/op on %d-byte frame", allocs, len(f))
		}
	}
}
