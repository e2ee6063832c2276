package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

func TestViewBasicUDP(t *testing.T) {
	frame := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: ip1, DstIP: ip2,
		Proto: IPProtocolUDP, SrcPort: 1234, DstPort: 80,
		Payload: []byte("hi"),
	})
	var v View
	if !v.Parse(frame) {
		t.Fatal("parse failed")
	}
	if !v.IsIPv4 || v.IsIPv6 || v.IsARP {
		t.Fatalf("family flags: %+v", v)
	}
	if v.L3Off != 14 || v.L4Off != 34 || v.L7Off != 42 {
		t.Fatalf("offsets: l3=%d l4=%d l7=%d", v.L3Off, v.L4Off, v.L7Off)
	}
	if v.Proto != IPProtocolUDP || v.SrcPort != 1234 || v.DstPort != 80 {
		t.Fatalf("proto/ports: %v %d %d", v.Proto, v.SrcPort, v.DstPort)
	}
	s4, d4 := ip1.As4(), ip2.As4()
	if !bytes.Equal(v.SrcIPv4(), s4[:]) || !bytes.Equal(v.DstIPv4(), d4[:]) {
		t.Fatal("address slices wrong")
	}
}

func TestViewVLANStack(t *testing.T) {
	frame := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB, VLANs: []uint16{5, 100},
		SrcIP: ip1, DstIP: ip2,
		Proto: IPProtocolTCP, SrcPort: 80, DstPort: 443,
	})
	var v View
	if !v.Parse(frame) {
		t.Fatal("parse failed")
	}
	if v.NVLAN != 2 || v.VLANEnd != 22 || v.L3Off != 22 {
		t.Fatalf("vlan accounting: %+v", v)
	}
	if v.Proto != IPProtocolTCP || v.SrcPort != 80 || v.DstPort != 443 {
		t.Fatalf("ports through VLANs: %+v", v)
	}
}

func TestViewARP(t *testing.T) {
	frame := MustBuildARP(ARPSpec{
		SrcMAC:   macA,
		SenderIP: ip1, TargetIP: ip2,
		PadTo: 64,
	})
	var v View
	if !v.Parse(frame) {
		t.Fatal("parse failed")
	}
	if !v.IsARP || v.IsIPv4 || v.IsIPv6 {
		t.Fatalf("flags: %+v", v)
	}
	if v.ARPOperation() != ARPRequest {
		t.Fatalf("operation: %d", v.ARPOperation())
	}
	s4, t4 := ip1.As4(), ip2.As4()
	if !bytes.Equal(v.ARPSenderIP(), s4[:]) || !bytes.Equal(v.ARPTargetIP(), t4[:]) {
		t.Fatal("ARP addresses wrong")
	}
	if !bytes.Equal(v.ARPSenderMAC(), macA[:]) {
		t.Fatal("ARP sender MAC wrong")
	}

	// A runt or non-Ethernet/IPv4 ARP is L2-valid but gets no ARP view,
	// matching the strict decoder.
	runt := append([]byte(nil), frame[:14+20]...)
	if !v.Parse(runt) || v.IsARP {
		t.Fatalf("runt ARP should parse without ARP view: %+v", v)
	}
	bad := append([]byte(nil), frame...)
	bad[14] = 9 // hardware type
	if !v.Parse(bad) || v.IsARP {
		t.Fatalf("non-Ethernet ARP should parse without ARP view: %+v", v)
	}
}

// buildIPv6Ext hand-assembles an Ethernet+IPv6 frame whose header chain
// passes through the given extension headers before a UDP header — the
// builder intentionally has no extension-header support, and the old
// apps-private view misparsed exactly these frames (it read the Next
// Header byte as the L4 protocol and the first extension header's bytes
// as ports).
func buildIPv6Ext(exts []IPProtocol, final IPProtocol, l4 []byte) []byte {
	var payload []byte
	for i, e := range exts {
		next := final
		if i+1 < len(exts) {
			next = exts[i+1]
		}
		switch e {
		case IPProtocolIPv6Fragment:
			frag := make([]byte, 8)
			frag[0] = byte(next)
			payload = append(payload, frag...)
		default:
			ext := make([]byte, 16)
			ext[0] = byte(next)
			ext[1] = 1 // (1+1)*8 = 16 bytes
			payload = append(payload, ext...)
		}
	}
	payload = append(payload, l4...)

	hdr := make([]byte, 14+40)
	copy(hdr[0:6], macB[:])
	copy(hdr[6:12], macA[:])
	binary.BigEndian.PutUint16(hdr[12:14], uint16(EtherTypeIPv6))
	hdr[14] = 6 << 4
	binary.BigEndian.PutUint16(hdr[18:20], uint16(len(payload)))
	first := final
	if len(exts) > 0 {
		first = exts[0]
	}
	hdr[20] = byte(first)
	hdr[21] = 64
	s16, d16 := ip61.As16(), ip62.As16()
	copy(hdr[22:38], s16[:])
	copy(hdr[38:54], d16[:])
	return append(hdr, payload...)
}

func udpHeader(src, dst uint16) []byte {
	h := make([]byte, 8)
	binary.BigEndian.PutUint16(h[0:2], src)
	binary.BigEndian.PutUint16(h[2:4], dst)
	binary.BigEndian.PutUint16(h[4:6], 8)
	return h
}

// TestViewIPv6ExtensionHeaders is the regression test for the parser bug
// the shared View fixes: any extension header used to yield garbage
// ports.
func TestViewIPv6ExtensionHeaders(t *testing.T) {
	cases := []struct {
		name string
		exts []IPProtocol
	}{
		{"none", nil},
		{"hop-by-hop", []IPProtocol{IPProtocolIPv6HopByHop}},
		{"routing", []IPProtocol{IPProtocolIPv6Routing}},
		{"dest-opts", []IPProtocol{IPProtocolIPv6DestOpts}},
		{"first-fragment", []IPProtocol{IPProtocolIPv6Fragment}},
		{"hbh+routing+dst", []IPProtocol{IPProtocolIPv6HopByHop, IPProtocolIPv6Routing, IPProtocolIPv6DestOpts}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := buildIPv6Ext(tc.exts, IPProtocolUDP, udpHeader(4242, 53))
			var v View
			if !v.Parse(frame) {
				t.Fatal("parse failed")
			}
			if !v.IsIPv6 {
				t.Fatal("not IPv6")
			}
			if v.Proto != IPProtocolUDP {
				t.Fatalf("proto = %v, want UDP (old parser reported the first extension header)", v.Proto)
			}
			if v.SrcPort != 4242 || v.DstPort != 53 {
				t.Fatalf("ports = %d/%d, want 4242/53 (old parser read extension-header bytes)", v.SrcPort, v.DstPort)
			}
			wantL4 := 14 + 40
			for _, e := range tc.exts {
				if e == IPProtocolIPv6Fragment {
					wantL4 += 8
				} else {
					wantL4 += 16
				}
			}
			if v.L4Off != wantL4 {
				t.Fatalf("l4Off = %d, want %d", v.L4Off, wantL4)
			}
		})
	}
}

func TestViewIPv6NonFirstFragmentHasNoPorts(t *testing.T) {
	frame := buildIPv6Ext(nil, IPProtocolIPv6Fragment, nil)
	// Append a fragment header with offset 185 pointing at UDP, then 8
	// bytes of mid-datagram payload that must NOT be read as ports.
	frag := make([]byte, 16)
	frag[0] = byte(IPProtocolUDP)
	binary.BigEndian.PutUint16(frag[2:4], 185<<3)
	frag[8], frag[9] = 0xde, 0xad
	frame = append(frame, frag...)
	var v View
	if !v.Parse(frame) {
		t.Fatal("parse failed")
	}
	if v.Proto != IPProtocolUDP {
		t.Fatalf("proto = %v", v.Proto)
	}
	if v.L4Off != 0 || v.SrcPort != 0 || v.DstPort != 0 {
		t.Fatalf("non-first fragment leaked an L4 view: %+v", v)
	}
}

func TestViewIPv6NoNextHeader(t *testing.T) {
	frame := buildIPv6Ext(nil, IPProtocolIPv6NoNext, nil)
	var v View
	if !v.Parse(frame) || !v.IsIPv6 {
		t.Fatal("parse failed")
	}
	if v.Proto != IPProtocolIPv6NoNext || v.L4Off != 0 {
		t.Fatalf("no-next-header: %+v", v)
	}
}

func TestViewIPv4Fragment(t *testing.T) {
	frame := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
		Proto: IPProtocolUDP, SrcPort: 9, DstPort: 9,
	})
	binary.BigEndian.PutUint16(frame[14+6:], 100) // fragment offset 100
	var v View
	if !v.Parse(frame) {
		t.Fatal("parse failed")
	}
	if v.L4Off != 0 || v.SrcPort != 0 {
		t.Fatalf("IPv4 non-first fragment leaked ports: %+v", v)
	}
	if v.Proto != IPProtocolUDP {
		t.Fatalf("proto: %v", v.Proto)
	}
}

func TestViewDNSAccessors(t *testing.T) {
	q := DNS{RD: true, Questions: []DNSQuestion{{Name: "Ads.Example.COM", Type: DNSTypeA, Class: DNSClassIN}}}
	q.ID = 0x1234
	buf := NewSerializeBuffer()
	if err := q.SerializeTo(buf, SerializeOptions{}); err != nil {
		t.Fatal(err)
	}
	frame := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
		Proto: IPProtocolUDP, SrcPort: 5353 + 1, DstPort: PortDNS,
		Payload: append([]byte(nil), buf.Bytes()...),
	})
	var v View
	if !v.Parse(frame) {
		t.Fatal("parse failed")
	}
	if _, ok := v.DNSPayload(); !ok {
		t.Fatal("DNSPayload not ok")
	}
	if v.DNSID() != 0x1234 || v.DNSIsResponse() || v.DNSQDCount() != 1 {
		t.Fatalf("DNS header fields: id=%x resp=%v qd=%d", v.DNSID(), v.DNSIsResponse(), v.DNSQDCount())
	}
	var nb [256]byte
	name, ok := v.DNSQName(nb[:0])
	if !ok || string(name) != "ads.example.com" {
		t.Fatalf("qname = %q ok=%v", name, ok)
	}

	// Non-DNS ports: no DNS view.
	other := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
		Proto: IPProtocolUDP, SrcPort: 1000, DstPort: 1001,
		Payload: append([]byte(nil), buf.Bytes()...),
	})
	if !v.Parse(other) {
		t.Fatal("parse failed")
	}
	if _, ok := v.DNSPayload(); ok {
		t.Fatal("DNS view on non-53 ports")
	}
}

func TestViewDHCPAccessors(t *testing.T) {
	mac := MustMAC("02:11:22:33:44:55")
	msg := DHCPv4{
		Op: DHCPOpRequest, XID: 0xcafe0001, Broadcast: true,
		ClientMAC: mac,
		Options: []DHCPOption{
			{Code: DHCPOptMsgType, Data: []byte{byte(DHCPDiscover)}},
		},
	}
	payload, err := msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	frame := MustBuild(Spec{
		SrcMAC: mac, DstMAC: MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		SrcIP: netip.MustParseAddr("0.0.0.0"), DstIP: netip.MustParseAddr("255.255.255.255"),
		Proto: IPProtocolUDP, SrcPort: PortDHCPClient, DstPort: PortDHCPServer,
		Payload: payload,
	})
	var v View
	if !v.Parse(frame) {
		t.Fatal("parse failed")
	}
	if _, ok := v.DHCPPayload(); !ok {
		t.Fatal("DHCPPayload not ok")
	}
	if v.DHCPOp() != DHCPOpRequest || v.DHCPXID() != 0xcafe0001 {
		t.Fatalf("op/xid: %d %x", v.DHCPOp(), v.DHCPXID())
	}
	if !bytes.Equal(v.DHCPClientMAC(), mac[:]) {
		t.Fatal("chaddr wrong")
	}
	mt, ok := v.DHCPMsgType()
	if !ok || mt != DHCPDiscover {
		t.Fatalf("msg type: %v ok=%v", mt, ok)
	}

	// The full decoder agrees end to end: UDP port 67/68 chains into the
	// DHCPv4 layer.
	pkt := NewPacket(frame, LayerTypeEthernet)
	dl := pkt.Layer(LayerTypeDHCPv4)
	if dl == nil {
		t.Fatalf("decoder found no DHCP layer: %v", pkt.ErrorLayer())
	}
	d := dl.(*DHCPv4)
	if d.XID != 0xcafe0001 || d.ClientMAC != mac {
		t.Fatalf("decoded DHCP: %+v", d)
	}
	if mt2, ok := d.MsgType(); !ok || mt2 != DHCPDiscover {
		t.Fatalf("decoded msg type: %v", mt2)
	}
}

func TestViewRewriteIPv4AddrKeepsChecksums(t *testing.T) {
	frame := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
		Proto: IPProtocolTCP, SrcPort: 1, DstPort: 2, Payload: []byte("x"),
	})
	var v View
	if !v.Parse(frame) {
		t.Fatal("parse failed")
	}
	v.RewriteIPv4Addr(v.L3Off+12, []byte{203, 0, 113, 9})
	if !VerifyIPv4Checksum(frame[14:]) {
		t.Fatal("IPv4 checksum broken by rewrite")
	}
	pkt := NewPacket(frame, LayerTypeEthernet)
	tcp := pkt.Layer(LayerTypeTCP).(*TCP)
	s4 := [4]byte{203, 0, 113, 9}
	d4 := ip2.As4()
	if TransportChecksum(append(udpTCPSegment(frame), []byte{}...), s4[:], d4[:], IPProtocolTCP) != 0 {
		t.Fatal("TCP checksum broken by rewrite")
	}
	_ = tcp
}

// udpTCPSegment returns the L4 segment of an option-free IPv4 frame.
func udpTCPSegment(frame []byte) []byte { return frame[34:] }

func TestViewParseZeroAlloc(t *testing.T) {
	frames := [][]byte{
		MustBuild(Spec{SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
			Proto: IPProtocolTCP, SrcPort: 80, DstPort: 443, PadTo: 64}),
		MustBuild(Spec{SrcMAC: macA, DstMAC: macB, VLANs: []uint16{7},
			SrcIP: ip61, DstIP: ip62, Proto: IPProtocolUDP, SrcPort: 53, DstPort: 53, PadTo: 128}),
		MustBuildARP(ARPSpec{SrcMAC: macA, SenderIP: ip1, TargetIP: ip2, PadTo: 64}),
		buildIPv6Ext([]IPProtocol{IPProtocolIPv6HopByHop}, IPProtocolUDP, udpHeader(9, 9)),
	}
	var v View
	var key [13]byte
	allocs := testing.AllocsPerRun(200, func() {
		for _, f := range frames {
			if v.Parse(f) {
				v.FiveTupleKey(key[:])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("View.Parse allocates: %.1f allocs/op", allocs)
	}
}

func TestViewQNameZeroAlloc(t *testing.T) {
	q := DNS{Questions: []DNSQuestion{{Name: "cdn.video.example", Type: DNSTypeA, Class: DNSClassIN}}}
	buf := NewSerializeBuffer()
	if err := q.SerializeTo(buf, SerializeOptions{}); err != nil {
		t.Fatal(err)
	}
	frame := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
		Proto: IPProtocolUDP, SrcPort: 40000, DstPort: PortDNS,
		Payload: append([]byte(nil), buf.Bytes()...),
	})
	var v View
	var nb [256]byte
	allocs := testing.AllocsPerRun(200, func() {
		v.Parse(frame)
		if _, ok := v.DNSQName(nb[:0]); !ok {
			t.Fatal("qname failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("DNSQName allocates: %.1f allocs/op", allocs)
	}
}

// MustBuildARP is BuildARP that panics on error; for tests.
func MustBuildARP(s ARPSpec) []byte {
	b, err := BuildARP(s)
	if err != nil {
		panic(err)
	}
	return b
}

// View field accessors only the tests read: the datapath apps use the
// sender side of ARP and the DNS/DHCP fields they match on.

// ARPOperation returns the ARP opcode (ARPRequest / ARPReply).
func (v *View) ARPOperation() uint16 {
	return binary.BigEndian.Uint16(v.Data[v.L3Off+6 : v.L3Off+8])
}

// ARPTargetMAC returns the 6-byte target hardware address.
func (v *View) ARPTargetMAC() []byte { return v.Data[v.L3Off+18 : v.L3Off+24] }

// ARPTargetIP returns the 4-byte target protocol address.
func (v *View) ARPTargetIP() []byte { return v.Data[v.L3Off+24 : v.L3Off+28] }

// DNSID returns the DNS transaction ID (valid when DNSPayload ok).
func (v *View) DNSID() uint16 { return binary.BigEndian.Uint16(v.Data[v.L7Off:]) }

// DNSQDCount returns the question count (valid when DNSPayload ok).
func (v *View) DNSQDCount() uint16 { return binary.BigEndian.Uint16(v.Data[v.L7Off+4:]) }

// DHCPXID returns the transaction ID; valid when DHCPPayload ok.
func (v *View) DHCPXID() uint32 { return binary.BigEndian.Uint32(v.Data[v.L7Off+4:]) }
