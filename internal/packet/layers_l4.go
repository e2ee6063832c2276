package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Well-known ports the decoder special-cases.
const (
	PortDNS        = 53
	PortDHCPServer = 67
	PortDHCPClient = 68
	PortVXLAN      = 4789
	PortHTTPS      = 443
)

// ipPair holds the addresses needed for an L4 pseudo-header checksum.
type ipPair struct {
	src, dst []byte
}

func makeIPPair(src, dst netip.Addr) (ipPair, error) {
	if src.Is4() && dst.Is4() {
		s, d := src.As4(), dst.As4()
		return ipPair{s[:], d[:]}, nil
	}
	if src.Is6() && dst.Is6() {
		s, d := src.As16(), dst.As16()
		return ipPair{s[:], d[:]}, nil
	}
	return ipPair{}, fmt.Errorf("%w: mixed or invalid address families", ErrBadHeader)
}

// TCP is the TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	FIN, SYN, RST    bool
	PSH, ACK, URG    bool
	ECE, CWR         bool
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte // raw options, padded to 4-byte multiple
	payload          []byte

	pseudo ipPair
}

// LayerType implements Layer.
func (t *TCP) LayerType() LayerType { return LayerTypeTCP }

// DecodeFromBytes implements Layer.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrTooShort
	}
	off := int(data[12]>>4) * 4
	if off < 20 {
		return fmt.Errorf("%w: TCP data offset %d < 20", ErrBadHeader, off)
	}
	if len(data) < off {
		return ErrTooShort
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	fl := data[13]
	t.FIN = fl&0x01 != 0
	t.SYN = fl&0x02 != 0
	t.RST = fl&0x04 != 0
	t.PSH = fl&0x08 != 0
	t.ACK = fl&0x10 != 0
	t.URG = fl&0x20 != 0
	t.ECE = fl&0x40 != 0
	t.CWR = fl&0x80 != 0
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = data[20:off]
	t.payload = data[off:]
	return nil
}

// NextLayerType implements Layer.
func (t *TCP) NextLayerType() LayerType { return LayerTypePayload }

// LayerPayload implements Layer.
func (t *TCP) LayerPayload() []byte { return t.payload }

// SetNetworkLayerForChecksum supplies the IP addresses used for the
// pseudo-header when serializing with ComputeChecksums.
func (t *TCP) SetNetworkLayerForChecksum(src, dst netip.Addr) error {
	p, err := makeIPPair(src, dst)
	if err != nil {
		return err
	}
	t.pseudo = p
	return nil
}

// SerializeTo implements SerializableLayer.
func (t *TCP) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	if len(t.Options)%4 != 0 {
		return fmt.Errorf("%w: TCP options length %d not multiple of 4", ErrBadHeader, len(t.Options))
	}
	hlen := 20 + len(t.Options)
	h := b.PrependBytes(hlen)
	binary.BigEndian.PutUint16(h[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(h[2:4], t.DstPort)
	binary.BigEndian.PutUint32(h[4:8], t.Seq)
	binary.BigEndian.PutUint32(h[8:12], t.Ack)
	h[12] = uint8(hlen/4) << 4
	var fl uint8
	if t.FIN {
		fl |= 0x01
	}
	if t.SYN {
		fl |= 0x02
	}
	if t.RST {
		fl |= 0x04
	}
	if t.PSH {
		fl |= 0x08
	}
	if t.ACK {
		fl |= 0x10
	}
	if t.URG {
		fl |= 0x20
	}
	if t.ECE {
		fl |= 0x40
	}
	if t.CWR {
		fl |= 0x80
	}
	h[13] = fl
	binary.BigEndian.PutUint16(h[14:16], t.Window)
	h[16], h[17] = 0, 0
	binary.BigEndian.PutUint16(h[18:20], t.Urgent)
	copy(h[20:], t.Options)
	if opts.ComputeChecksums {
		if t.pseudo.src == nil {
			return fmt.Errorf("%w: TCP checksum requires SetNetworkLayerForChecksum", ErrBadHeader)
		}
		t.Checksum = TransportChecksum(b.Bytes(), t.pseudo.src, t.pseudo.dst, IPProtocolTCP)
	}
	binary.BigEndian.PutUint16(h[16:18], t.Checksum)
	return nil
}

// UDP is the UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // filled by FixLengths
	Checksum         uint16
	payload          []byte

	pseudo ipPair
}

// LayerType implements Layer.
func (u *UDP) LayerType() LayerType { return LayerTypeUDP }

// DecodeFromBytes implements Layer.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrTooShort
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	if u.Length < 8 {
		return fmt.Errorf("%w: UDP length %d < 8", ErrBadHeader, u.Length)
	}
	if int(u.Length) > len(data) {
		return ErrTruncated
	}
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	u.payload = data[8:u.Length]
	return nil
}

// NextLayerType implements Layer.
func (u *UDP) NextLayerType() LayerType {
	switch {
	case u.DstPort == PortDNS || u.SrcPort == PortDNS:
		return LayerTypeDNS
	case u.DstPort == PortDHCPServer || u.DstPort == PortDHCPClient ||
		u.SrcPort == PortDHCPServer || u.SrcPort == PortDHCPClient:
		return LayerTypeDHCPv4
	case u.DstPort == PortVXLAN:
		return LayerTypeVXLAN
	default:
		return LayerTypePayload
	}
}

// LayerPayload implements Layer.
func (u *UDP) LayerPayload() []byte { return u.payload }

// SetNetworkLayerForChecksum supplies the IP addresses used for the
// pseudo-header when serializing with ComputeChecksums.
func (u *UDP) SetNetworkLayerForChecksum(src, dst netip.Addr) error {
	p, err := makeIPPair(src, dst)
	if err != nil {
		return err
	}
	u.pseudo = p
	return nil
}

// SerializeTo implements SerializableLayer.
func (u *UDP) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	payloadLen := b.Len()
	h := b.PrependBytes(8)
	binary.BigEndian.PutUint16(h[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(h[2:4], u.DstPort)
	if opts.FixLengths {
		u.Length = uint16(8 + payloadLen)
	}
	binary.BigEndian.PutUint16(h[4:6], u.Length)
	h[6], h[7] = 0, 0
	if opts.ComputeChecksums {
		if u.pseudo.src == nil {
			return fmt.Errorf("%w: UDP checksum requires SetNetworkLayerForChecksum", ErrBadHeader)
		}
		u.Checksum = TransportChecksum(b.Bytes(), u.pseudo.src, u.pseudo.dst, IPProtocolUDP)
		if u.Checksum == 0 {
			u.Checksum = 0xffff // RFC 768: transmitted as all ones
		}
	}
	binary.BigEndian.PutUint16(h[6:8], u.Checksum)
	return nil
}

// ICMPv4 type codes used by the models.
const (
	ICMPv4TypeEchoReply   = 0
	ICMPv4TypeDestUnreach = 3
	ICMPv4TypeEchoRequest = 8
	ICMPv4TypeTimeExceed  = 11
)

// ICMPv4 is the ICMP header for IPv4.
type ICMPv4 struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	ID       uint16
	Seq      uint16
	payload  []byte
}

// LayerType implements Layer.
func (i *ICMPv4) LayerType() LayerType { return LayerTypeICMPv4 }

// DecodeFromBytes implements Layer.
func (i *ICMPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrTooShort
	}
	i.Type = data[0]
	i.Code = data[1]
	i.Checksum = binary.BigEndian.Uint16(data[2:4])
	i.ID = binary.BigEndian.Uint16(data[4:6])
	i.Seq = binary.BigEndian.Uint16(data[6:8])
	i.payload = data[8:]
	return nil
}

// NextLayerType implements Layer.
func (i *ICMPv4) NextLayerType() LayerType { return LayerTypePayload }

// LayerPayload implements Layer.
func (i *ICMPv4) LayerPayload() []byte { return i.payload }

// SerializeTo implements SerializableLayer.
func (i *ICMPv4) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	h := b.PrependBytes(8)
	h[0] = i.Type
	h[1] = i.Code
	h[2], h[3] = 0, 0
	binary.BigEndian.PutUint16(h[4:6], i.ID)
	binary.BigEndian.PutUint16(h[6:8], i.Seq)
	if opts.ComputeChecksums {
		i.Checksum = Checksum(b.Bytes())
	}
	binary.BigEndian.PutUint16(h[2:4], i.Checksum)
	return nil
}
