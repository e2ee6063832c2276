package trafficgen

import (
	"fmt"
	"net/netip"

	"flexsfp/internal/packet"
)

// Profile names a mixed-protocol traffic blend. Where the base generator
// varies only flow tuples and sizes over one protocol, a profile emits
// the protocol diversity the edge actually carries — ARP, DHCP, DNS and
// TCP in realistic ratios — so the catalog apps (arpguard, dhcpsnoop,
// dnsblock, lb, …) see representative work in line-rate experiments.
type Profile string

const (
	// ProfileARPStorm is a broadcast storm: gratuitous ARP requests and
	// replies from many hosts with a trickle of background UDP.
	ProfileARPStorm Profile = "arp-storm"
	// ProfileDHCPChurn is a lease-churn wave: DISCOVER/REQUEST floods
	// from clients, OFFER/ACK replies, and RELEASEs.
	ProfileDHCPChurn Profile = "dhcp-churn"
	// ProfileDNSEdge is the subscriber edge: DNS queries dominate with
	// HTTPS and plain UDP alongside.
	ProfileDNSEdge Profile = "dns-edge"
	// ProfileElephantMice is the classic heavy-tail mix: a few full-size
	// TCP elephants carrying most bytes over many 64-byte TCP mice.
	ProfileElephantMice Profile = "elephant-mice"
)

// profile construction constants: template sets are a pure function of
// (profile, hosts) so generated traffic is deterministic by build order.
const profileDefaultHosts = 16

var (
	profGW     = packet.MAC{0x02, 0xfe, 0, 0, 0, 0x01}
	profServer = netip.AddrFrom4([4]byte{203, 0, 113, 10})
	profDNSSrv = netip.AddrFrom4([4]byte{203, 0, 113, 53})
)

func profHostMAC(h int) packet.MAC {
	return packet.MAC{0x02, 0xed, 0, 0, byte(h >> 8), byte(h)}
}

func profHostIP(h int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 7, byte(h >> 8), byte(h)})
}

// ProfileTemplates builds the weighted frame set for a profile over the
// given number of edge hosts (0 = default). The result is deterministic:
// same profile and host count, byte-identical templates.
func ProfileTemplates(p Profile, hosts int) ([]WeightedFrame, error) {
	if hosts <= 0 {
		hosts = profileDefaultHosts
	}
	switch p {
	case ProfileARPStorm:
		return arpStormTemplates(hosts)
	case ProfileDHCPChurn:
		return dhcpChurnTemplates(hosts)
	case ProfileDNSEdge:
		return dnsEdgeTemplates(hosts)
	case ProfileElephantMice:
		return elephantMiceTemplates(hosts)
	}
	return nil, fmt.Errorf("trafficgen: unknown profile %q", p)
}

func arpStormTemplates(hosts int) ([]WeightedFrame, error) {
	var out []WeightedFrame
	for h := 0; h < hosts; h++ {
		mac, ip := profHostMAC(h), profHostIP(h)
		// Gratuitous announcement (the storm body).
		req, err := packet.BuildARP(packet.ARPSpec{
			SrcMAC: mac, SenderIP: ip, TargetIP: ip, PadTo: 64,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WeightedFrame{Frame: req, Weight: 6})
		// Directed reply toward the gateway.
		rep, err := packet.BuildARP(packet.ARPSpec{
			SrcMAC: mac, DstMAC: profGW, Operation: packet.ARPReply,
			SenderIP: ip, TargetMAC: profGW, TargetIP: netip.AddrFrom4([4]byte{10, 7, 0, 254}),
			PadTo: 64,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WeightedFrame{Frame: rep, Weight: 2})
	}
	// Background UDP so parsers see non-ARP interleaved.
	bg, err := packet.Build(packet.Spec{
		SrcMAC: profHostMAC(0), DstMAC: profGW,
		SrcIP: profHostIP(0), DstIP: profServer,
		SrcPort: 40000, DstPort: 80, PadTo: 128,
	})
	if err != nil {
		return nil, err
	}
	return append(out, WeightedFrame{Frame: bg, Weight: hosts}), nil
}

func dhcpChurnTemplates(hosts int) ([]WeightedFrame, error) {
	zero := netip.AddrFrom4([4]byte{0, 0, 0, 0})
	bcast := netip.AddrFrom4([4]byte{255, 255, 255, 255})
	server := netip.AddrFrom4([4]byte{10, 7, 0, 254})

	clientMsg := func(h int, mt packet.DHCPMsgType, ciaddr netip.Addr) ([]byte, error) {
		msg := packet.DHCPv4{
			Op: packet.DHCPOpRequest, XID: uint32(0x10000 + h), ClientMAC: profHostMAC(h),
			ClientIP: ciaddr,
			Options:  []packet.DHCPOption{{Code: packet.DHCPOptMsgType, Data: []byte{byte(mt)}}},
		}
		pl, err := msg.Marshal()
		if err != nil {
			return nil, err
		}
		return packet.Build(packet.Spec{
			SrcMAC: profHostMAC(h), DstMAC: packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
			SrcIP: zero, DstIP: bcast,
			SrcPort: packet.PortDHCPClient, DstPort: packet.PortDHCPServer,
			Payload: pl,
		})
	}
	serverMsg := func(h int, mt packet.DHCPMsgType) ([]byte, error) {
		msg := packet.DHCPv4{
			Op: packet.DHCPOpReply, XID: uint32(0x10000 + h), ClientMAC: profHostMAC(h),
			YourIP: profHostIP(h), ServerIP: server,
			Options: []packet.DHCPOption{{Code: packet.DHCPOptMsgType, Data: []byte{byte(mt)}}},
		}
		pl, err := msg.Marshal()
		if err != nil {
			return nil, err
		}
		return packet.Build(packet.Spec{
			SrcMAC: profGW, DstMAC: profHostMAC(h),
			SrcIP: server, DstIP: profHostIP(h),
			SrcPort: packet.PortDHCPServer, DstPort: packet.PortDHCPClient,
			Payload: pl,
		})
	}

	var out []WeightedFrame
	for h := 0; h < hosts; h++ {
		steps := []struct {
			build  func() ([]byte, error)
			weight int
		}{
			{func() ([]byte, error) { return clientMsg(h, packet.DHCPDiscover, zero) }, 3},
			{func() ([]byte, error) { return serverMsg(h, packet.DHCPOffer) }, 2},
			{func() ([]byte, error) { return clientMsg(h, packet.DHCPRequest, zero) }, 3},
			{func() ([]byte, error) { return serverMsg(h, packet.DHCPAck) }, 2},
			{func() ([]byte, error) { return clientMsg(h, packet.DHCPRelease, profHostIP(h)) }, 1},
		}
		for _, s := range steps {
			f, err := s.build()
			if err != nil {
				return nil, err
			}
			out = append(out, WeightedFrame{Frame: f, Weight: s.weight})
		}
	}
	return out, nil
}

func dnsEdgeTemplates(hosts int) ([]WeightedFrame, error) {
	names := []string{
		"cdn.example", "www.example", "api.example",
		"ads.example", "tracker.ads.example", "mail.example",
	}
	var out []WeightedFrame
	for h := 0; h < hosts; h++ {
		name := names[h%len(names)]
		q := packet.DNS{ID: uint16(0x4000 + h), RD: true,
			Questions: []packet.DNSQuestion{{Name: name, Type: packet.DNSTypeA, Class: packet.DNSClassIN}}}
		buf := packet.NewSerializeBuffer()
		if err := q.SerializeTo(buf, packet.SerializeOptions{}); err != nil {
			return nil, err
		}
		pl := make([]byte, buf.Len())
		copy(pl, buf.Bytes())
		query, err := packet.Build(packet.Spec{
			SrcMAC: profHostMAC(h), DstMAC: profGW,
			SrcIP: profHostIP(h), DstIP: profDNSSrv,
			SrcPort: uint16(10000 + h), DstPort: packet.PortDNS,
			Payload: pl,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WeightedFrame{Frame: query, Weight: 6})

		https, err := packet.Build(packet.Spec{
			SrcMAC: profHostMAC(h), DstMAC: profGW,
			SrcIP: profHostIP(h), DstIP: profServer,
			Proto: packet.IPProtocolTCP, SrcPort: uint16(20000 + h), DstPort: packet.PortHTTPS,
			PadTo: 594,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WeightedFrame{Frame: https, Weight: 3})

		quic, err := packet.Build(packet.Spec{
			SrcMAC: profHostMAC(h), DstMAC: profGW,
			SrcIP: profHostIP(h), DstIP: profServer,
			SrcPort: uint16(30000 + h), DstPort: packet.PortHTTPS,
			PadTo: 1280,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WeightedFrame{Frame: quic, Weight: 1})
	}
	return out, nil
}

func elephantMiceTemplates(hosts int) ([]WeightedFrame, error) {
	var out []WeightedFrame
	elephants := hosts / 8
	if elephants < 1 {
		elephants = 1
	}
	for e := 0; e < elephants; e++ {
		f, err := packet.Build(packet.Spec{
			SrcMAC: profHostMAC(e), DstMAC: profGW,
			SrcIP: profHostIP(e), DstIP: profServer,
			Proto: packet.IPProtocolTCP, SrcPort: uint16(50000 + e), DstPort: packet.PortHTTPS,
			PadTo: 1518,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WeightedFrame{Frame: f, Weight: 6})
	}
	for h := 0; h < hosts; h++ {
		f, err := packet.Build(packet.Spec{
			SrcMAC: profHostMAC(h), DstMAC: profGW,
			SrcIP: profHostIP(h), DstIP: profServer,
			Proto: packet.IPProtocolTCP, SYN: true,
			SrcPort: uint16(60000 + h), DstPort: 80,
			PadTo: 64,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WeightedFrame{Frame: f, Weight: 1})
	}
	return out, nil
}
