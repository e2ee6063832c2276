package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

// FuzzViewVsDecode is the differential target pinning the shared parser
// to the full layered decoder: wherever Decode accepts a layer, the
// single-pass View must agree on offsets, protocol, addresses and ports.
// The View is deliberately laxer (it ignores IP total-length fields), so
// the comparison is one-directional — decoder success implies View
// agreement — with the exact ARP equivalence checked both ways. The lazy
// GRE, VXLAN and INT accessors are checked both ways too, against their
// layer decoders on the same bytes (checkLazyAccessors).
func FuzzViewVsDecode(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	f.Add(MustBuildARP(ARPSpec{SrcMAC: macA, SenderIP: ip1, TargetIP: ip2, PadTo: 64}))
	f.Add(MustBuildARP(ARPSpec{
		SrcMAC: macA, DstMAC: macB, Operation: ARPReply,
		SenderIP: ip2, TargetMAC: macB, TargetIP: ip1,
	}))
	f.Add(buildIPv6Ext([]IPProtocol{IPProtocolIPv6HopByHop, IPProtocolIPv6DestOpts},
		IPProtocolTCP, MustBuild(Spec{SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
			Proto: IPProtocolTCP, SrcPort: 1, DstPort: 2})[34:]))
	if dhcp, err := (&DHCPv4{Op: DHCPOpRequest, XID: 7, ClientMAC: macA,
		Options: []DHCPOption{{Code: DHCPOptMsgType, Data: []byte{byte(DHCPRequest)}}}}).Marshal(); err == nil {
		f.Add(MustBuild(Spec{SrcMAC: macA, DstMAC: macB,
			SrcIP: netip.MustParseAddr("0.0.0.0"), DstIP: netip.MustParseAddr("255.255.255.255"),
			Proto: IPProtocolUDP, SrcPort: PortDHCPClient, DstPort: PortDHCPServer, Payload: dhcp}))
	}

	for c := 0; c < 8; c++ {
		// Every combination of the GRE checksum, key and sequence bits.
		var flags uint16
		for i, bit := range []uint16{0x8000, 0x2000, 0x1000} {
			if c>>i&1 == 1 {
				flags |= bit
			}
		}
		f.Add(greSeedFrame(flags))
	}
	f.Add(vxlanSeedFrame(0x08))
	f.Add(vxlanSeedFrame(0x00)) // I flag clear
	for _, hops := range []int{0, 1, INTMaxHops, INTMaxHops + 1} {
		f.Add(intSeedFrame(hops))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var v View
		parsed := v.Parse(data)
		if parsed {
			checkLazyAccessors(t, &v)
		}

		pkt := NewPacket(data, LayerTypeEthernet)
		layers := pkt.Layers()
		if len(layers) == 0 {
			return // decoder rejected the Ethernet header outright
		}
		if !parsed {
			// The View rejects a frame only for malformed/truncated L2/L3;
			// when it does, the decoder must not have reached a valid L3
			// either (it may still hold Ethernet/VLANs).
			for _, l := range layers {
				switch l.LayerType() {
				case LayerTypeIPv4, LayerTypeIPv6:
					t.Fatalf("View rejected a frame the decoder gave %v", l.LayerType())
				}
			}
			return
		}

		// Walk the L2 prefix the way the View does. The View caps VLAN
		// extraction at 4 tags (hardware parser window); deeper stacks are
		// out of its contract.
		i := 1 // layers[0] is Ethernet
		vlans := 0
		for i < len(layers) && layers[i].LayerType() == LayerTypeDot1Q {
			vlans++
			i++
		}
		if vlans > maxViewVLANs {
			return
		}
		if vlans != v.NVLAN {
			t.Fatalf("VLAN count: view %d, decoder %d", v.NVLAN, vlans)
		}
		if i >= len(layers) {
			return
		}

		switch l3 := layers[i].(type) {
		case *ARP:
			if !v.IsARP {
				t.Fatal("decoder decoded ARP, view did not")
			}
			if v.ARPOperation() != l3.Operation {
				t.Fatalf("ARP operation: view %d, decoder %d", v.ARPOperation(), l3.Operation)
			}
			sd, td := l3.SenderIP.As4(), l3.TargetIP.As4()
			if !bytes.Equal(v.ARPSenderIP(), sd[:]) || !bytes.Equal(v.ARPTargetIP(), td[:]) {
				t.Fatal("ARP addresses disagree")
			}
			if !bytes.Equal(v.ARPSenderMAC(), l3.SenderMAC[:]) || !bytes.Equal(v.ARPTargetMAC(), l3.TargetMAC[:]) {
				t.Fatal("ARP MACs disagree")
			}
		case *IPv4:
			if !v.IsIPv4 {
				t.Fatal("decoder decoded IPv4, view did not")
			}
			if v.Proto != l3.Protocol {
				t.Fatalf("IPv4 protocol: view %v, decoder %v", v.Proto, l3.Protocol)
			}
			if v.IPv4HeaderLen() != l3.HeaderLength() {
				t.Fatalf("IPv4 header length: view %d, decoder %d", v.IPv4HeaderLen(), l3.HeaderLength())
			}
			s4, d4 := l3.SrcIP.As4(), l3.DstIP.As4()
			if !bytes.Equal(v.SrcIPv4(), s4[:]) || !bytes.Equal(v.DstIPv4(), d4[:]) {
				t.Fatal("IPv4 addresses disagree (offset bug)")
			}
			if l3.FragOffset != 0 && v.L4Off != 0 {
				t.Fatal("view parsed L4 inside a non-first fragment")
			}
			compareL4(t, &v, layers, i+1)
		case *IPv6:
			if !v.IsIPv6 {
				t.Fatal("decoder decoded IPv6, view did not")
			}
			// The full decoder does not walk extension headers; only when
			// the next header is a directly-decodable transport do the two
			// parsers share a contract.
			switch l3.NextHeader {
			case IPProtocolTCP, IPProtocolUDP, IPProtocolICMPv4, IPProtocolGRE:
				if v.Proto != l3.NextHeader {
					t.Fatalf("IPv6 protocol: view %v, decoder %v", v.Proto, l3.NextHeader)
				}
				compareL4(t, &v, layers, i+1)
			}
		}
	})
}

// compareL4 checks the transport view against a decoded TCP/UDP layer, if
// one directly follows the network layer.
func compareL4(t *testing.T, v *View, layers []Layer, i int) {
	t.Helper()
	if i >= len(layers) {
		return
	}
	switch l4 := layers[i].(type) {
	case *TCP:
		if v.L4Off == 0 {
			t.Fatal("decoder decoded TCP, view has no L4 offset")
		}
		if v.SrcPort != l4.SrcPort || v.DstPort != l4.DstPort {
			t.Fatalf("TCP ports: view %d/%d, decoder %d/%d", v.SrcPort, v.DstPort, l4.SrcPort, l4.DstPort)
		}
		// The decoded header starts where the view says it does.
		if got := binary.BigEndian.Uint16(v.Data[v.L4Off:]); got != l4.SrcPort {
			t.Fatalf("L4 offset mismatch: byte at L4Off gives port %d", got)
		}
	case *UDP:
		if v.L4Off == 0 {
			t.Fatal("decoder decoded UDP, view has no L4 offset")
		}
		if v.SrcPort != l4.SrcPort || v.DstPort != l4.DstPort {
			t.Fatalf("UDP ports: view %d/%d, decoder %d/%d", v.SrcPort, v.DstPort, l4.SrcPort, l4.DstPort)
		}
	}
}

// checkLazyAccessors holds each lazy accessor to its layer decoder on the
// same bytes, both ways: the decoder accepts exactly when the accessor
// does, and then every field and the inner offset agree. A frame without
// the header's protocol must not satisfy its accessor.
func checkLazyAccessors(t *testing.T, v *View) {
	t.Helper()
	d := v.Data

	n, ok := v.GREHeaderLen()
	if v.Proto == IPProtocolGRE && v.L4Off != 0 {
		var g GRE
		err := g.DecodeFromBytes(d[v.L4Off:])
		if (err == nil) != ok {
			t.Fatalf("GRE: decoder error %v, accessor ok %v", err, ok)
		}
		if ok {
			key, present := v.GREKey()
			if v.L4Off+n != len(d)-len(g.LayerPayload()) {
				t.Fatalf("GRE inner offset: view %d, decoder %d", v.L4Off+n, len(d)-len(g.LayerPayload()))
			}
			if v.GREProtocol() != g.Protocol || present != g.KeyPresent || key != g.Key {
				t.Fatalf("GRE fields: view %v/%v/%#x, decoder %v/%v/%#x",
					v.GREProtocol(), present, key, g.Protocol, g.KeyPresent, g.Key)
			}
		}
	} else if ok {
		t.Fatal("GRE accessor accepted a frame without a GRE header")
	}

	vni, ok := v.VXLANVNI()
	if v.Proto == IPProtocolUDP && v.DstPort == PortVXLAN && v.L7Off != 0 {
		var x VXLAN
		err := x.DecodeFromBytes(d[v.L7Off:])
		if (err == nil) != ok {
			t.Fatalf("VXLAN: decoder error %v, accessor ok %v", err, ok)
		}
		if ok && (vni != x.VNI || v.L7Off+VXLANHeaderLen != len(d)-len(x.LayerPayload())) {
			t.Fatalf("VXLAN: view VNI %d inner %d, decoder %d %d",
				vni, v.L7Off+VXLANHeaderLen, x.VNI, len(d)-len(x.LayerPayload()))
		}
	} else if ok {
		t.Fatal("VXLAN accessor accepted a frame without a VXLAN header")
	}

	hops, ok := v.INTHops()
	if v.EtherType == EtherTypeINT {
		var in INT
		err := in.DecodeFromBytes(d[v.L3Off:])
		if (err == nil) != ok {
			t.Fatalf("INT: decoder error %v, accessor ok %v", err, ok)
		}
		if !ok {
			return
		}
		if hops != len(in.Hops) || v.INTOriginalEtherType() != in.OriginalEtherType ||
			v.L3Off+v.INTShimLen() != len(d)-len(in.LayerPayload()) {
			t.Fatalf("INT: view %d hops/%v/inner %d, decoder %d/%v/%d", hops, v.INTOriginalEtherType(),
				v.L3Off+v.INTShimLen(), len(in.Hops), in.OriginalEtherType, len(d)-len(in.LayerPayload()))
		}
		for i, h := range in.Hops {
			if v.INTHop(i) != h {
				t.Fatalf("INT hop %d: view %+v, decoder %+v", i, v.INTHop(i), h)
			}
		}
	} else if ok {
		t.Fatal("INT accessor accepted a frame without an INT shim")
	}
}

// greSeedFrame is an IPv4 frame carrying a GRE header with the given flag
// word. Each optional field holds distinct bytes, so reading one in
// place of another shows.
func greSeedFrame(flags uint16) []byte {
	f := MustBuild(Spec{SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2, SrcPort: 1, DstPort: 2})[:34]
	f[23] = byte(IPProtocolGRE)
	f = binary.BigEndian.AppendUint16(f, flags)
	f = binary.BigEndian.AppendUint16(f, uint16(EtherTypeTransparentEthernet))
	for i, bit := range []uint16{0x8000, 0x2000, 0x1000} {
		if flags&bit != 0 {
			f = append(f, bytes.Repeat([]byte{byte(0x11 * (i + 1))}, 4)...)
		}
	}
	f = append(f, MustBuild(Spec{SrcMAC: macB, DstMAC: macA, SrcIP: ip2, DstIP: ip1, SrcPort: 3, DstPort: 4})...)
	binary.BigEndian.PutUint16(f[16:], uint16(len(f)-14))
	f[24], f[25] = 0, 0
	binary.BigEndian.PutUint16(f[24:], Checksum(f[14:34]))
	return f
}

// vxlanSeedFrame is a UDP frame to port 4789 with an 8-byte VXLAN header
// whose flag byte is flags, VNI 0x123456.
func vxlanSeedFrame(flags byte) []byte {
	payload := append([]byte{flags, 0, 0, 0, 0x12, 0x34, 0x56, 0},
		MustBuild(Spec{SrcMAC: macB, DstMAC: macA, SrcIP: ip2, DstIP: ip1, SrcPort: 3, DstPort: 4})...)
	return MustBuild(Spec{SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
		SrcPort: 5000, DstPort: PortVXLAN, Payload: payload})
}

// intSeedFrame is an Ethernet frame carrying a version-1 INT shim with the
// given hop count and that many distinct hop records, in front of an IPv4
// packet.
func intSeedFrame(hops int) []byte {
	inner := MustBuild(Spec{SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2, SrcPort: 1, DstPort: 2})
	f := append([]byte(nil), inner[:12]...)
	f = binary.BigEndian.AppendUint16(f, uint16(EtherTypeINT))
	f = append(f, INTVersion<<4, byte(hops))
	f = binary.BigEndian.AppendUint16(f, uint16(EtherTypeIPv4))
	for i := 0; i < hops; i++ {
		f = append(f, bytes.Repeat([]byte{byte(i + 1)}, INTHopSize)...)
	}
	return append(f, inner[14:]...)
}

// HeaderLength returns the header length in bytes including options.
func (ip *IPv4) HeaderLength() int { return 20 + len(ip.Options) }
