package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Spec describes a packet for the one-call builder used by traffic
// generators and tests. Zero values get sensible defaults.
type Spec struct {
	SrcMAC, DstMAC MAC
	VLANs          []uint16 // outer to inner; >1 entry produces QinQ
	SrcIP, DstIP   netip.Addr
	Proto          IPProtocol // TCP, UDP or ICMPv4 (IPv4 only); default UDP
	SrcPort        uint16
	DstPort        uint16
	TTL            uint8 // default 64
	SYN            bool  // TCP only
	Payload        []byte
	// PadTo pads the frame with zero payload bytes up to this total frame
	// length (before FCS); 0 disables. Useful for fixed-size workloads.
	PadTo int
}

// Build serializes the described packet with lengths and checksums fixed.
func Build(s Spec) ([]byte, error) {
	if !s.SrcIP.IsValid() || !s.DstIP.IsValid() {
		return nil, fmt.Errorf("%w: builder requires src and dst IPs", ErrBadHeader)
	}
	if s.TTL == 0 {
		s.TTL = 64
	}
	if s.Proto == 0 {
		s.Proto = IPProtocolUDP
	}

	var layers []SerializableLayer

	eth := &Ethernet{SrcMAC: s.SrcMAC, DstMAC: s.DstMAC}
	layers = append(layers, eth)

	// VLAN stack: the enclosing EtherType is QinQ for the outer tag of a
	// stacked pair, Dot1Q otherwise.
	prevType := &eth.EtherType
	for i, vid := range s.VLANs {
		if i == 0 && len(s.VLANs) > 1 {
			*prevType = EtherTypeQinQ
		} else {
			*prevType = EtherTypeDot1Q
		}
		tag := &Dot1Q{VLAN: vid}
		layers = append(layers, tag)
		prevType = &tag.EtherType
	}

	var ipProtoSlot *IPProtocol
	var src, dst netip.Addr = s.SrcIP, s.DstIP
	switch {
	case src.Is4() && dst.Is4():
		*prevType = EtherTypeIPv4
		ip := &IPv4{TTL: s.TTL, SrcIP: src, DstIP: dst}
		ipProtoSlot = &ip.Protocol
		layers = append(layers, ip)
	case src.Is6() && dst.Is6():
		*prevType = EtherTypeIPv6
		ip := &IPv6{HopLimit: s.TTL, SrcIP: src, DstIP: dst}
		ipProtoSlot = &ip.NextHeader
		layers = append(layers, ip)
	default:
		return nil, fmt.Errorf("%w: mixed address families", ErrBadHeader)
	}

	switch s.Proto {
	case IPProtocolUDP:
		*ipProtoSlot = IPProtocolUDP
		u := &UDP{SrcPort: s.SrcPort, DstPort: s.DstPort}
		if err := u.SetNetworkLayerForChecksum(src, dst); err != nil {
			return nil, err
		}
		layers = append(layers, u)
	case IPProtocolTCP:
		*ipProtoSlot = IPProtocolTCP
		t := &TCP{SrcPort: s.SrcPort, DstPort: s.DstPort, Window: 65535, SYN: s.SYN, ACK: !s.SYN}
		if err := t.SetNetworkLayerForChecksum(src, dst); err != nil {
			return nil, err
		}
		layers = append(layers, t)
	case IPProtocolICMPv4:
		if !src.Is4() {
			// IPv6 carries ICMPv6 (next header 58, with a pseudo-header
			// checksum), which the builder does not produce.
			return nil, fmt.Errorf("%w: ICMPv4 over IPv6", ErrBadHeader)
		}
		*ipProtoSlot = IPProtocolICMPv4
		layers = append(layers, &ICMPv4{Type: ICMPv4TypeEchoRequest, ID: s.SrcPort, Seq: s.DstPort})
	default:
		return nil, fmt.Errorf("%w: unsupported builder protocol %d", ErrBadHeader, s.Proto)
	}

	payload := s.Payload
	if s.PadTo > 0 {
		overhead := 14 + 4*len(s.VLANs) + 8 // eth + tags + udp
		if src.Is4() {
			overhead += 20
		} else {
			overhead += 40
		}
		switch s.Proto {
		case IPProtocolTCP:
			overhead += 12 // tcp header is 20, udp assumed 8 above
		case IPProtocolICMPv4:
			// icmp header is 8, same as udp
		}
		if want := s.PadTo - overhead; want > len(payload) {
			padded := make([]byte, want)
			copy(padded, payload)
			payload = padded
		}
	}
	pl := Payload(payload)
	layers = append(layers, &pl)

	buf := NewSerializeBuffer()
	opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
	if err := SerializeLayers(buf, opts, layers...); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// MustBuild is Build that panics on error; for tests.
func MustBuild(s Spec) []byte {
	b, err := Build(s)
	if err != nil {
		panic(err)
	}
	return b
}

// BuildEthernet returns payload behind an Ethernet header, in a pool
// buffer (see GetBuffer).
func BuildEthernet(dst, src MAC, et EtherType, payload []byte) []byte {
	out := GetBuffer(14 + len(payload))
	copy(out[0:6], dst[:])
	copy(out[6:12], src[:])
	binary.BigEndian.PutUint16(out[12:14], uint16(et))
	copy(out[14:], payload)
	return out
}

// ARPSpec describes an ARP frame for the builder (the IP-based Spec
// cannot express ARP, which has no L3 header).
type ARPSpec struct {
	SrcMAC MAC
	// DstMAC defaults to broadcast for requests and SenderMAC-directed
	// unicast is the caller's choice for replies.
	DstMAC    MAC
	VLANs     []uint16
	Operation uint16 // ARPRequest / ARPReply; default ARPRequest
	SenderMAC MAC
	SenderIP  netip.Addr
	TargetMAC MAC
	TargetIP  netip.Addr
	// PadTo pads the frame with zero bytes to this total length.
	PadTo int
}

// BuildARP serializes an IPv4-over-Ethernet ARP frame.
func BuildARP(s ARPSpec) ([]byte, error) {
	if s.Operation == 0 {
		s.Operation = ARPRequest
	}
	if s.DstMAC == (MAC{}) {
		s.DstMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	}
	if s.SenderMAC == (MAC{}) {
		s.SenderMAC = s.SrcMAC
	}

	var layers []SerializableLayer
	eth := &Ethernet{SrcMAC: s.SrcMAC, DstMAC: s.DstMAC}
	layers = append(layers, eth)
	prevType := &eth.EtherType
	for i, vid := range s.VLANs {
		if i == 0 && len(s.VLANs) > 1 {
			*prevType = EtherTypeQinQ
		} else {
			*prevType = EtherTypeDot1Q
		}
		tag := &Dot1Q{VLAN: vid}
		layers = append(layers, tag)
		prevType = &tag.EtherType
	}
	*prevType = EtherTypeARP
	layers = append(layers, &ARP{
		Operation: s.Operation,
		SenderMAC: s.SenderMAC, SenderIP: s.SenderIP,
		TargetMAC: s.TargetMAC, TargetIP: s.TargetIP,
	})
	if pad := s.PadTo - (14 + 4*len(s.VLANs) + 28); pad > 0 {
		pl := Payload(make([]byte, pad))
		layers = append(layers, &pl)
	}

	buf := NewSerializeBuffer()
	if err := SerializeLayers(buf, SerializeOptions{}, layers...); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// Marshal renders the DHCP message standalone (UDP payload bytes), for
// feeding through Build as the payload of a port-67/68 frame.
func (d *DHCPv4) Marshal() ([]byte, error) {
	buf := NewSerializeBuffer()
	if err := d.SerializeTo(buf, SerializeOptions{}); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}
