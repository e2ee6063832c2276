package apps

import (
	"encoding/json"
	"net/netip"
	"testing"
	"testing/quick"

	"flexsfp/internal/hls"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/runner"
)

var (
	macHost = packet.MustMAC("02:00:00:00:00:01")
	macGW   = packet.MustMAC("02:00:00:00:00:02")
	ipInt   = netip.MustParseAddr("192.168.1.10")
	ipExt   = netip.MustParseAddr("203.0.113.10")
	ipSrv   = netip.MustParseAddr("198.51.100.5")
)

func udpFrame(t *testing.T, src, dst netip.Addr, sport, dport uint16) []byte {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW,
		SrcIP: src, DstIP: dst,
		SrcPort: sport, DstPort: dport,
		PadTo: 64,
	})
}

func run(h ppe.Handler, data []byte, dir ppe.Direction) (ppe.Verdict, []byte) {
	ctx := &ppe.Ctx{Data: data, Dir: dir, TimestampNs: 1000}
	v := h.HandlePacket(ctx)
	return v, ctx.Data
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// --- NAT -----------------------------------------------------------------

func TestNATTranslatesAndFixesChecksums(t *testing.T) {
	a := NewNAT()
	cfg := NATConfig{Mappings: []NATMapping{{Internal: ipInt.String(), External: ipExt.String()}}}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	frame := udpFrame(t, ipInt, ipSrv, 5000, 80)
	v, out := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
	if v != ppe.VerdictPass {
		t.Fatalf("verdict = %v", v)
	}
	pkt := packet.NewPacket(out, packet.LayerTypeEthernet)
	if pkt.ErrorLayer() != nil {
		t.Fatal(pkt.ErrorLayer())
	}
	ip := pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	if ip.SrcIP != ipExt {
		t.Errorf("src = %v, want %v", ip.SrcIP, ipExt)
	}
	// Both checksums must still verify after the incremental update.
	var eth packet.Ethernet
	_ = eth.DecodeFromBytes(out)
	if !packet.VerifyIPv4Checksum(eth.LayerPayload()) {
		t.Error("IPv4 checksum broken by NAT")
	}
	s4, d4 := ip.SrcIP.As4(), ip.DstIP.As4()
	if packet.TransportChecksum(ip.LayerPayload(), s4[:], d4[:], packet.IPProtocolUDP) != 0 {
		t.Error("UDP checksum broken by NAT")
	}
	if pkts, _ := a.stats.Read(NATTranslated); pkts != 1 {
		t.Errorf("translated counter = %d", pkts)
	}
}

func TestNATTCPChecksum(t *testing.T) {
	a := NewNAT()
	i4, o4 := ipInt.As4(), ipExt.As4()
	if err := a.table.Add(i4[:], o4[:]); err != nil {
		t.Fatal(err)
	}
	frame := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: ipSrv,
		Proto: packet.IPProtocolTCP, SrcPort: 3333, DstPort: 443,
	})
	_, out := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
	var eth packet.Ethernet
	var ip packet.IPv4
	_ = eth.DecodeFromBytes(out)
	_ = ip.DecodeFromBytes(eth.LayerPayload())
	s4, d4 := ip.SrcIP.As4(), ip.DstIP.As4()
	if packet.TransportChecksum(ip.LayerPayload(), s4[:], d4[:], packet.IPProtocolTCP) != 0 {
		t.Error("TCP checksum broken by NAT")
	}
}

func TestNATMissPassesUnchanged(t *testing.T) {
	a := NewNAT()
	frame := udpFrame(t, ipInt, ipSrv, 1, 2)
	want := append([]byte(nil), frame...)
	v, out := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
	if v != ppe.VerdictPass {
		t.Fatalf("verdict = %v", v)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatal("miss modified the packet")
		}
	}
	if pkts, _ := a.stats.Read(NATMissPassed); pkts != 1 {
		t.Errorf("miss counter = %d", pkts)
	}
}

func TestNATDirectionFilter(t *testing.T) {
	a := NewNAT()
	cfg := NATConfig{
		Direction: "edge-to-optical",
		Mappings:  []NATMapping{{Internal: ipInt.String(), External: ipExt.String()}},
	}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	frame := udpFrame(t, ipInt, ipSrv, 1, 2)
	_, out := run(a.prog.Handler, frame, ppe.DirOpticalToEdge)
	pkt := packet.NewPacket(out, packet.LayerTypeEthernet)
	if pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4).SrcIP != ipInt {
		t.Error("reverse-direction packet was translated")
	}
}

func TestNATConfigErrors(t *testing.T) {
	a := NewNAT()
	if err := a.Configure([]byte("{bad json")); err == nil {
		t.Error("bad JSON accepted")
	}
	cfg := NATConfig{Mappings: []NATMapping{{Internal: "2001:db8::1", External: "1.2.3.4"}}}
	if err := a.Configure(mustJSON(t, cfg)); err == nil {
		t.Error("IPv6 mapping accepted")
	}
}

func TestNATProgramMatchesTable1(t *testing.T) {
	// The app's own declarative structure must synthesize to the paper's
	// Table 1 NAT row.
	r := hls.EstimateProgram(NewNAT().Program(), 64)
	if r.LSRAM != 160 || r.USRAM != 36 {
		t.Errorf("memory = %d LSRAM / %d uSRAM, want 160/36", r.LSRAM, r.USRAM)
	}
	if r.LUT4 < 9000 || r.LUT4 > 9250 {
		t.Errorf("LUT4 = %d, want ≈9122", r.LUT4)
	}
}

// --- ACL -----------------------------------------------------------------

func TestACLRules(t *testing.T) {
	a := NewACL()
	cfg := ACLConfig{
		Rules: []ACLRule{
			{SrcPrefix: "192.168.0.0/16", DstPort: 22, Proto: 6, Deny: true, Priority: 100},
			{SrcPrefix: "192.168.1.0/24", Priority: 50},
		},
		DefaultDeny: false,
	}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	ssh := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: ipSrv,
		Proto: packet.IPProtocolTCP, SrcPort: 40000, DstPort: 22,
	})
	if v, _ := run(a.prog.Handler, ssh, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Errorf("SSH verdict = %v, want drop", v)
	}
	web := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: ipSrv,
		Proto: packet.IPProtocolTCP, SrcPort: 40000, DstPort: 443,
	})
	if v, _ := run(a.prog.Handler, web, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Errorf("web verdict = %v, want pass", v)
	}
	denied, _ := a.verdicts.Read(ACLDenied)
	permitted, _ := a.verdicts.Read(ACLPermitted)
	if denied != 1 || permitted != 1 {
		t.Errorf("counters: denied=%d permitted=%d", denied, permitted)
	}
}

func TestACLDefaultDeny(t *testing.T) {
	a := NewACL()
	cfg := ACLConfig{DefaultDeny: true, Rules: []ACLRule{
		{DstPort: 53, Proto: 17, Priority: 10},
	}}
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	dns := udpFrame(t, ipInt, ipSrv, 5353, 53)
	if v, _ := run(a.prog.Handler, dns, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("allowed DNS dropped")
	}
	other := udpFrame(t, ipInt, ipSrv, 5353, 123)
	if v, _ := run(a.prog.Handler, other, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("default-deny passed NTP")
	}
}

func TestACLDropsGarbage(t *testing.T) {
	a := NewACL()
	if v, _ := run(a.prog.Handler, []byte{1, 2, 3}, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("unparseable frame passed the firewall")
	}
}

func TestACLBadConfig(t *testing.T) {
	a := NewACL()
	cfg := ACLConfig{Rules: []ACLRule{{SrcPrefix: "2001:db8::/32"}}}
	if err := a.Configure(mustJSON(t, cfg)); err == nil {
		t.Error("IPv6 prefix accepted")
	}
	cfg = ACLConfig{Rules: []ACLRule{{SrcPrefix: "not-a-cidr"}}}
	if err := a.Configure(mustJSON(t, cfg)); err == nil {
		t.Error("garbage prefix accepted")
	}
}

// --- VLAN ----------------------------------------------------------------

func TestVLANPushPop(t *testing.T) {
	a := NewVLAN()
	if err := a.Configure(mustJSON(t, VLANConfig{VLAN: 42, Priority: 3})); err != nil {
		t.Fatal(err)
	}
	frame := udpFrame(t, ipInt, ipSrv, 1, 2)
	origLen := len(frame)

	_, tagged := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
	if len(tagged) != origLen+4 {
		t.Fatalf("tagged length = %d", len(tagged))
	}
	pkt := packet.NewPacket(tagged, packet.LayerTypeEthernet)
	tag := pkt.Layer(packet.LayerTypeDot1Q)
	if tag == nil {
		t.Fatal("no VLAN tag after push")
	}
	if d := tag.(*packet.Dot1Q); d.VLAN != 42 || d.Priority != 3 {
		t.Errorf("tag = %+v", d)
	}
	if pkt.Layer(packet.LayerTypeUDP) == nil {
		t.Error("payload corrupted by push")
	}

	_, popped := run(a.prog.Handler, tagged, ppe.DirOpticalToEdge)
	if len(popped) != origLen {
		t.Fatalf("popped length = %d, want %d", len(popped), origLen)
	}
	pkt = packet.NewPacket(popped, packet.LayerTypeEthernet)
	if pkt.Layer(packet.LayerTypeDot1Q) != nil {
		t.Error("tag still present after pop")
	}
}

func TestVLANPopOnlyMatchingVID(t *testing.T) {
	a := NewVLAN()
	if err := a.Configure(mustJSON(t, VLANConfig{VLAN: 42})); err != nil {
		t.Fatal(err)
	}
	frame := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, VLANs: []uint16{7},
		SrcIP: ipInt, DstIP: ipSrv, SrcPort: 1, DstPort: 2,
	})
	_, out := run(a.prog.Handler, frame, ppe.DirOpticalToEdge)
	pkt := packet.NewPacket(out, packet.LayerTypeEthernet)
	if pkt.Layer(packet.LayerTypeDot1Q) == nil {
		t.Error("foreign VID popped")
	}
}

func TestVLANQinQ(t *testing.T) {
	a := NewVLAN()
	if err := a.Configure(mustJSON(t, VLANConfig{VLAN: 100, QinQ: true})); err != nil {
		t.Fatal(err)
	}
	inner := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, VLANs: []uint16{7},
		SrcIP: ipInt, DstIP: ipSrv, SrcPort: 1, DstPort: 2,
	})
	_, out := run(a.prog.Handler, inner, ppe.DirEdgeToOptical)
	var eth packet.Ethernet
	if err := eth.DecodeFromBytes(out); err != nil {
		t.Fatal(err)
	}
	if eth.EtherType != packet.EtherTypeQinQ {
		t.Errorf("outer EtherType = %#x, want QinQ", eth.EtherType)
	}
	pkt := packet.NewPacket(out, packet.LayerTypeEthernet)
	var vids []uint16
	for _, l := range pkt.Layers() {
		if d, ok := l.(*packet.Dot1Q); ok {
			vids = append(vids, d.VLAN)
		}
	}
	if len(vids) != 2 || vids[0] != 100 || vids[1] != 7 {
		t.Errorf("vids = %v, want [100 7]", vids)
	}
}

func TestVLANConfigValidation(t *testing.T) {
	a := NewVLAN()
	if err := a.Configure(nil); err == nil {
		t.Error("missing config accepted")
	}
	if err := a.Configure(mustJSON(t, VLANConfig{VLAN: 4095})); err == nil {
		t.Error("reserved VID accepted")
	}
}

// --- Tunnel --------------------------------------------------------------

func tunnelConfig(mode string) TunnelConfig {
	return TunnelConfig{
		Mode:       mode,
		LocalIP:    "10.255.0.1",
		RemoteIP:   "10.255.0.2",
		LocalMAC:   "02:aa:aa:aa:aa:01",
		GatewayMAC: "02:aa:aa:aa:aa:02",
		VNI:        7777,
		GREKey:     99,
	}
}

func TestTunnelGRERoundTrip(t *testing.T) {
	a := NewTunnel()
	if err := a.Configure(mustJSON(t, tunnelConfig(TunnelGRE))); err != nil {
		t.Fatal(err)
	}
	inner := udpFrame(t, ipInt, ipSrv, 7, 8)
	_, encapped := run(a.prog.Handler, inner, ppe.DirEdgeToOptical)

	pkt := packet.NewPacket(encapped, packet.LayerTypeEthernet)
	if pkt.ErrorLayer() != nil {
		t.Fatal(pkt.ErrorLayer())
	}
	outer := pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	if outer.Protocol != packet.IPProtocolGRE || outer.DstIP.String() != "10.255.0.2" {
		t.Errorf("outer = %+v", outer)
	}
	gre := pkt.Layer(packet.LayerTypeGRE)
	if gre == nil || gre.(*packet.GRE).Key != 99 {
		t.Fatalf("gre = %+v", gre)
	}

	// Decap at the remote (same config, mirrored direction).
	b := NewTunnel()
	cfg := tunnelConfig(TunnelGRE)
	cfg.LocalIP, cfg.RemoteIP = cfg.RemoteIP, cfg.LocalIP
	if err := b.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	_, decapped := run(b.prog.Handler, encapped, ppe.DirOpticalToEdge)
	if len(decapped) != len(inner) {
		t.Fatalf("decapped %d bytes, want %d", len(decapped), len(inner))
	}
	for i := range inner {
		if decapped[i] != inner[i] {
			t.Fatal("inner frame corrupted through GRE")
		}
	}
}

func TestTunnelVXLANRoundTrip(t *testing.T) {
	a := NewTunnel()
	if err := a.Configure(mustJSON(t, tunnelConfig(TunnelVXLAN))); err != nil {
		t.Fatal(err)
	}
	inner := udpFrame(t, ipInt, ipSrv, 7, 8)
	_, encapped := run(a.prog.Handler, inner, ppe.DirEdgeToOptical)
	pkt := packet.NewPacket(encapped, packet.LayerTypeEthernet)
	vx := pkt.Layer(packet.LayerTypeVXLAN)
	if vx == nil || vx.(*packet.VXLAN).VNI != 7777 {
		t.Fatalf("vxlan = %+v", vx)
	}
	udp := pkt.Layer(packet.LayerTypeUDP).(*packet.UDP)
	if udp.DstPort != packet.PortVXLAN || udp.SrcPort < 49152 {
		t.Errorf("udp ports = %d→%d", udp.SrcPort, udp.DstPort)
	}

	b := NewTunnel()
	cfg := tunnelConfig(TunnelVXLAN)
	cfg.LocalIP, cfg.RemoteIP = cfg.RemoteIP, cfg.LocalIP
	if err := b.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	_, decapped := run(b.prog.Handler, encapped, ppe.DirOpticalToEdge)
	for i := range inner {
		if decapped[i] != inner[i] {
			t.Fatal("inner frame corrupted through VXLAN")
		}
	}
}

func TestTunnelVXLANWrongVNIPasses(t *testing.T) {
	a := NewTunnel()
	if err := a.Configure(mustJSON(t, tunnelConfig(TunnelVXLAN))); err != nil {
		t.Fatal(err)
	}
	inner := udpFrame(t, ipInt, ipSrv, 7, 8)
	_, encapped := run(a.prog.Handler, inner, ppe.DirEdgeToOptical)

	b := NewTunnel()
	cfg := tunnelConfig(TunnelVXLAN)
	cfg.LocalIP, cfg.RemoteIP = cfg.RemoteIP, cfg.LocalIP
	cfg.VNI = 1 // different tenant
	if err := b.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	_, out := run(b.prog.Handler, encapped, ppe.DirOpticalToEdge)
	if len(out) != len(encapped) {
		t.Error("foreign VNI was decapped")
	}
}

func TestTunnelIPIP(t *testing.T) {
	a := NewTunnel()
	if err := a.Configure(mustJSON(t, tunnelConfig(TunnelIPIP))); err != nil {
		t.Fatal(err)
	}
	inner := udpFrame(t, ipInt, ipSrv, 7, 8)
	_, encapped := run(a.prog.Handler, inner, ppe.DirEdgeToOptical)
	pkt := packet.NewPacket(encapped, packet.LayerTypeEthernet)
	layers := pkt.Layers()
	// eth, outer IPv4, inner IPv4, UDP.
	nIPv4 := 0
	for _, l := range layers {
		if l.LayerType() == packet.LayerTypeIPv4 {
			nIPv4++
		}
	}
	if nIPv4 != 2 {
		t.Fatalf("IPv4 layers = %d, want 2", nIPv4)
	}
	if pkt.Layer(packet.LayerTypeUDP) == nil {
		t.Error("inner UDP lost")
	}
}

func TestTunnelConfigValidation(t *testing.T) {
	a := NewTunnel()
	cfg := tunnelConfig("wireguard")
	if err := a.Configure(mustJSON(t, cfg)); err == nil {
		t.Error("unknown mode accepted")
	}
	cfg = tunnelConfig(TunnelGRE)
	cfg.LocalMAC = "zz"
	if err := a.Configure(mustJSON(t, cfg)); err == nil {
		t.Error("bad MAC accepted")
	}
}

// --- LB ------------------------------------------------------------------

func lbConfig(n int) LBConfig {
	cfg := LBConfig{VIP: "203.0.113.100"}
	for i := 0; i < n; i++ {
		cfg.Backends = append(cfg.Backends, LBBackend{
			IP:  netip.AddrFrom4([4]byte{10, 0, 1, byte(i + 1)}).String(),
			MAC: packet.MAC{0x02, 0xbb, 0, 0, 0, byte(i + 1)}.String(),
		})
	}
	return cfg
}

func TestLBSteersToBackends(t *testing.T) {
	a := NewLB()
	if err := a.Configure(mustJSON(t, lbConfig(4))); err != nil {
		t.Fatal(err)
	}
	vip := netip.MustParseAddr("203.0.113.100")
	seen := map[netip.Addr]int{}
	for i := 0; i < 400; i++ {
		frame := packet.MustBuild(packet.Spec{
			SrcMAC: macHost, DstMAC: macGW,
			SrcIP: ipInt, DstIP: vip,
			Proto: packet.IPProtocolTCP, SrcPort: uint16(10000 + i), DstPort: 80,
		})
		v, out := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
		if v != ppe.VerdictPass {
			t.Fatalf("verdict = %v", v)
		}
		pkt := packet.NewPacket(out, packet.LayerTypeEthernet)
		ip := pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
		seen[ip.DstIP]++
		// Checksums stay valid.
		var eth packet.Ethernet
		_ = eth.DecodeFromBytes(out)
		if !packet.VerifyIPv4Checksum(eth.LayerPayload()) {
			t.Fatal("IPv4 checksum broken by LB")
		}
	}
	if len(seen) != 4 {
		t.Errorf("flows hit %d backends, want 4", len(seen))
	}
	for ip, c := range seen {
		if c < 40 {
			t.Errorf("backend %v got only %d of 400 flows", ip, c)
		}
	}
}

func TestLBFlowStickiness(t *testing.T) {
	a := NewLB()
	if err := a.Configure(mustJSON(t, lbConfig(8))); err != nil {
		t.Fatal(err)
	}
	vip := netip.MustParseAddr("203.0.113.100")
	var first netip.Addr
	for i := 0; i < 10; i++ {
		frame := packet.MustBuild(packet.Spec{
			SrcMAC: macHost, DstMAC: macGW,
			SrcIP: ipInt, DstIP: vip,
			Proto: packet.IPProtocolTCP, SrcPort: 55555, DstPort: 80,
		})
		_, out := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
		pkt := packet.NewPacket(out, packet.LayerTypeEthernet)
		dst := pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4).DstIP
		if i == 0 {
			first = dst
		} else if dst != first {
			t.Fatal("same flow steered to different backends")
		}
	}
}

// TestSymmetricFlowHashProperty: the load balancer's flow hash is the
// same for both directions of a connection, and the protocol is part of
// the flow.
func TestSymmetricFlowHashProperty(t *testing.T) {
	hash := func(proto packet.IPProtocol, src, dst [4]byte, sp, dp uint16) uint64 {
		var v packet.View
		v.Parse(packet.MustBuild(packet.Spec{
			SrcMAC: macHost, DstMAC: macGW,
			SrcIP: netip.AddrFrom4(src), DstIP: netip.AddrFrom4(dst),
			Proto: proto, SrcPort: sp, DstPort: dp,
		}))
		return symmetricFlowHash(&v)
	}
	symmetric := func(a, b [4]byte, pa, pb uint16) bool {
		return hash(packet.IPProtocolTCP, a, b, pa, pb) == hash(packet.IPProtocolTCP, b, a, pb, pa)
	}
	if err := quick.Check(symmetric, &quick.Config{Rand: runner.NewRand(11)}); err != nil {
		t.Error(err)
	}
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	if hash(packet.IPProtocolTCP, a, b, 1, 2) == hash(packet.IPProtocolUDP, a, b, 1, 2) {
		t.Error("flow hash ignores the protocol")
	}
}

func TestLBIgnoresNonVIP(t *testing.T) {
	a := NewLB()
	if err := a.Configure(mustJSON(t, lbConfig(2))); err != nil {
		t.Fatal(err)
	}
	frame := udpFrame(t, ipInt, ipSrv, 1, 2)
	want := append([]byte(nil), frame...)
	_, out := run(a.prog.Handler, frame, ppe.DirEdgeToOptical)
	for i := range want {
		if out[i] != want[i] {
			t.Fatal("non-VIP traffic modified")
		}
	}
	if p, _ := a.ctr.Read(LBPassed); p != 1 {
		t.Errorf("passed counter = %d", p)
	}
}

func TestLBConfigValidation(t *testing.T) {
	a := NewLB()
	if err := a.Configure(nil); err == nil {
		t.Error("empty config accepted")
	}
	cfg := lbConfig(1)
	cfg.VIP = "nope"
	if err := a.Configure(mustJSON(t, cfg)); err == nil {
		t.Error("bad VIP accepted")
	}
	cfg = LBConfig{VIP: "1.2.3.4"}
	if err := a.Configure(mustJSON(t, cfg)); err == nil {
		t.Error("zero backends accepted")
	}
}

func TestTunnelMTUGuard(t *testing.T) {
	a := NewTunnel()
	cfg := tunnelConfig(TunnelVXLAN)
	cfg.MTU = 1518
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	// A 1518-byte inner frame grows by 50 bytes of VXLAN overhead: the
	// result exceeds the egress MTU and must be dropped, counted.
	big := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: ipSrv,
		SrcPort: 1, DstPort: 2, PadTo: 1518,
	})
	if v, _ := run(a.prog.Handler, big, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Error("oversized encap passed")
	}
	if n, _ := a.ctr.Read(TunnelTooBig); n != 1 {
		t.Errorf("too-big counter = %d", n)
	}
	// A small frame still encapsulates.
	small := udpFrame(t, ipInt, ipSrv, 1, 2)
	if v, _ := run(a.prog.Handler, small, ppe.DirEdgeToOptical); v != ppe.VerdictPass {
		t.Error("small frame dropped")
	}
}
