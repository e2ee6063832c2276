package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPv4 is the IPv4 header.
type IPv4 struct {
	TOS        uint8
	Length     uint16 // total length; filled by FixLengths on serialize
	ID         uint16
	DontFrag   bool
	MoreFrags  bool
	FragOffset uint16 // in 8-byte units
	TTL        uint8
	Protocol   IPProtocol
	Checksum   uint16
	SrcIP      netip.Addr
	DstIP      netip.Addr
	Options    []byte // raw options, multiple of 4 bytes
	payload    []byte
}

// LayerType implements Layer.
func (ip *IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// DecodeFromBytes implements Layer.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrTooShort
	}
	if data[0]>>4 != 4 {
		return fmt.Errorf("%w: IP version %d", ErrBadHeader, data[0]>>4)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 {
		return fmt.Errorf("%w: IHL %d < 20", ErrBadHeader, ihl)
	}
	if len(data) < ihl {
		return ErrTooShort
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	if int(ip.Length) < ihl {
		return fmt.Errorf("%w: total length %d < header length %d", ErrBadHeader, ip.Length, ihl)
	}
	if int(ip.Length) > len(data) {
		return ErrTruncated
	}
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.DontFrag = ff&0x4000 != 0
	ip.MoreFrags = ff&0x2000 != 0
	ip.FragOffset = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.SrcIP = netip.AddrFrom4([4]byte(data[12:16]))
	ip.DstIP = netip.AddrFrom4([4]byte(data[16:20]))
	ip.Options = data[20:ihl]
	ip.payload = data[ihl:ip.Length]
	return nil
}

// NextLayerType implements Layer. Non-first fragments are opaque.
func (ip *IPv4) NextLayerType() LayerType {
	if ip.FragOffset != 0 {
		return LayerTypePayload
	}
	return ip.Protocol.layerType()
}

func (p IPProtocol) layerType() LayerType {
	switch p {
	case IPProtocolTCP:
		return LayerTypeTCP
	case IPProtocolUDP:
		return LayerTypeUDP
	case IPProtocolICMPv4:
		return LayerTypeICMPv4
	case IPProtocolGRE:
		return LayerTypeGRE
	case IPProtocolIPv4:
		return LayerTypeIPv4
	case IPProtocolIPv6:
		return LayerTypeIPv6
	default:
		return LayerTypePayload
	}
}

// LayerPayload implements Layer.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// VerifyChecksum recomputes the header checksum over hdr (the full IPv4
// header bytes) and reports whether it is consistent.
func VerifyIPv4Checksum(hdr []byte) bool {
	if len(hdr) < 20 {
		return false
	}
	ihl := int(hdr[0]&0x0f) * 4
	if ihl < 20 || len(hdr) < ihl {
		return false
	}
	return Checksum(hdr[:ihl]) == 0
}

// SerializeTo implements SerializableLayer.
func (ip *IPv4) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	if len(ip.Options)%4 != 0 {
		return fmt.Errorf("%w: IPv4 options length %d not multiple of 4", ErrBadHeader, len(ip.Options))
	}
	if !ip.SrcIP.Is4() || !ip.DstIP.Is4() {
		return fmt.Errorf("%w: IPv4 layer requires 4-byte addresses", ErrBadHeader)
	}
	hlen := 20 + len(ip.Options)
	payloadLen := b.Len()
	h := b.PrependBytes(hlen)
	h[0] = 0x40 | uint8(hlen/4)
	h[1] = ip.TOS
	if opts.FixLengths {
		ip.Length = uint16(hlen + payloadLen)
	}
	binary.BigEndian.PutUint16(h[2:4], ip.Length)
	binary.BigEndian.PutUint16(h[4:6], ip.ID)
	ff := ip.FragOffset & 0x1fff
	if ip.DontFrag {
		ff |= 0x4000
	}
	if ip.MoreFrags {
		ff |= 0x2000
	}
	binary.BigEndian.PutUint16(h[6:8], ff)
	h[8] = ip.TTL
	h[9] = uint8(ip.Protocol)
	h[10], h[11] = 0, 0
	s4 := ip.SrcIP.As4()
	d4 := ip.DstIP.As4()
	copy(h[12:16], s4[:])
	copy(h[16:20], d4[:])
	copy(h[20:], ip.Options)
	if opts.ComputeChecksums {
		ip.Checksum = Checksum(h[:hlen])
	}
	binary.BigEndian.PutUint16(h[10:12], ip.Checksum)
	return nil
}

// IPv6 is the fixed IPv6 header. Extension headers other than the common
// case of "none" are surfaced as opaque payload.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	Length       uint16 // payload length; filled by FixLengths
	NextHeader   IPProtocol
	HopLimit     uint8
	SrcIP        netip.Addr
	DstIP        netip.Addr
	payload      []byte
}

// LayerType implements Layer.
func (ip *IPv6) LayerType() LayerType { return LayerTypeIPv6 }

// DecodeFromBytes implements Layer.
func (ip *IPv6) DecodeFromBytes(data []byte) error {
	if len(data) < 40 {
		return ErrTooShort
	}
	if data[0]>>4 != 6 {
		return fmt.Errorf("%w: IP version %d", ErrBadHeader, data[0]>>4)
	}
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.FlowLabel = binary.BigEndian.Uint32(data[0:4]) & 0xfffff
	ip.Length = binary.BigEndian.Uint16(data[4:6])
	if int(ip.Length) > len(data)-40 {
		return ErrTruncated
	}
	ip.NextHeader = IPProtocol(data[6])
	ip.HopLimit = data[7]
	ip.SrcIP = netip.AddrFrom16([16]byte(data[8:24]))
	ip.DstIP = netip.AddrFrom16([16]byte(data[24:40]))
	ip.payload = data[40 : 40+int(ip.Length)]
	return nil
}

// NextLayerType implements Layer.
func (ip *IPv6) NextLayerType() LayerType { return ip.NextHeader.layerType() }

// LayerPayload implements Layer.
func (ip *IPv6) LayerPayload() []byte { return ip.payload }

// SerializeTo implements SerializableLayer.
func (ip *IPv6) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	if !ip.SrcIP.Is6() || ip.SrcIP.Is4In6() || !ip.DstIP.Is6() || ip.DstIP.Is4In6() {
		return fmt.Errorf("%w: IPv6 layer requires 16-byte addresses", ErrBadHeader)
	}
	payloadLen := b.Len()
	h := b.PrependBytes(40)
	binary.BigEndian.PutUint32(h[0:4], 6<<28|uint32(ip.TrafficClass)<<20|ip.FlowLabel&0xfffff)
	if opts.FixLengths {
		ip.Length = uint16(payloadLen)
	}
	binary.BigEndian.PutUint16(h[4:6], ip.Length)
	h[6] = uint8(ip.NextHeader)
	h[7] = ip.HopLimit
	s := ip.SrcIP.As16()
	d := ip.DstIP.As16()
	copy(h[8:24], s[:])
	copy(h[24:40], d[:])
	return nil
}
