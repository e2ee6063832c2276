package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// DHCPv4 wire constants.
const (
	// DHCPFixedLen is the BOOTP fixed header (236 bytes) plus the 4-byte
	// DHCP magic cookie.
	DHCPFixedLen = 240

	dhcpMagicCookie = 0x63825363
)

// DHCPMsgType is the option-53 message type.
type DHCPMsgType uint8

// DHCP message types (RFC 2132 §9.6).
const (
	DHCPDiscover DHCPMsgType = 1
	DHCPOffer    DHCPMsgType = 2
	DHCPRequest  DHCPMsgType = 3
	DHCPDecline  DHCPMsgType = 4
	DHCPAck      DHCPMsgType = 5
	DHCPNak      DHCPMsgType = 6
	DHCPRelease  DHCPMsgType = 7
	DHCPInform   DHCPMsgType = 8
)

func (t DHCPMsgType) String() string {
	switch t {
	case DHCPDiscover:
		return "DISCOVER"
	case DHCPOffer:
		return "OFFER"
	case DHCPRequest:
		return "REQUEST"
	case DHCPDecline:
		return "DECLINE"
	case DHCPAck:
		return "ACK"
	case DHCPNak:
		return "NAK"
	case DHCPRelease:
		return "RELEASE"
	case DHCPInform:
		return "INFORM"
	default:
		return fmt.Sprintf("DHCPMsgType(%d)", uint8(t))
	}
}

// DHCP option codes the catalog uses.
const (
	DHCPOptPad         uint8 = 0
	DHCPOptSubnetMask  uint8 = 1
	DHCPOptRouter      uint8 = 3
	DHCPOptDNS         uint8 = 6
	DHCPOptRequestedIP uint8 = 50
	DHCPOptLeaseTime   uint8 = 51
	DHCPOptMsgType     uint8 = 53
	DHCPOptServerID    uint8 = 54
	DHCPOptEnd         uint8 = 255
)

// BOOTP ops.
const (
	DHCPOpRequest uint8 = 1
	DHCPOpReply   uint8 = 2
)

// DHCPOption is one TLV option.
type DHCPOption struct {
	Code uint8
	Data []byte
}

// DHCPv4 is a BOOTP/DHCP message (Ethernet hardware addresses only — the
// shape the in-cable snooping pipeline parses). The 192 bytes of
// sname/file are treated as opaque zero padding.
type DHCPv4 struct {
	Op        uint8 // DHCPOpRequest / DHCPOpReply
	Hops      uint8
	XID       uint32
	Secs      uint16
	Broadcast bool
	ClientIP  netip.Addr // ciaddr
	YourIP    netip.Addr // yiaddr
	ServerIP  netip.Addr // siaddr
	GatewayIP netip.Addr // giaddr
	ClientMAC MAC        // chaddr (htype 1, hlen 6)
	// Options excludes the terminating End option, which decode strips
	// and serialize re-appends.
	Options []DHCPOption
	payload []byte
}

// LayerType implements Layer.
func (d *DHCPv4) LayerType() LayerType { return LayerTypeDHCPv4 }

// DecodeFromBytes implements Layer.
func (d *DHCPv4) DecodeFromBytes(data []byte) error {
	if len(data) < DHCPFixedLen {
		return ErrTooShort
	}
	if binary.BigEndian.Uint32(data[236:240]) != dhcpMagicCookie {
		return fmt.Errorf("%w: missing DHCP magic cookie", ErrBadHeader)
	}
	if data[1] != 1 || data[2] != 6 {
		return fmt.Errorf("%w: unsupported DHCP hardware type/length", ErrBadHeader)
	}
	d.Op = data[0]
	d.Hops = data[3]
	d.XID = binary.BigEndian.Uint32(data[4:8])
	d.Secs = binary.BigEndian.Uint16(data[8:10])
	d.Broadcast = binary.BigEndian.Uint16(data[10:12])&0x8000 != 0
	d.ClientIP = netip.AddrFrom4([4]byte(data[12:16]))
	d.YourIP = netip.AddrFrom4([4]byte(data[16:20]))
	d.ServerIP = netip.AddrFrom4([4]byte(data[20:24]))
	d.GatewayIP = netip.AddrFrom4([4]byte(data[24:28]))
	copy(d.ClientMAC[:], data[28:34])

	d.Options = d.Options[:0]
	p := DHCPFixedLen
	for p < len(data) {
		code := data[p]
		switch code {
		case DHCPOptPad:
			p++
			continue
		case DHCPOptEnd:
			d.payload = data[len(data):]
			return nil
		}
		if p+2 > len(data) {
			return ErrTooShort
		}
		l := int(data[p+1])
		if p+2+l > len(data) {
			return ErrTruncated
		}
		d.Options = append(d.Options, DHCPOption{Code: code, Data: data[p+2 : p+2+l]})
		p += 2 + l
	}
	d.payload = data[len(data):]
	return nil
}

// NextLayerType implements Layer.
func (d *DHCPv4) NextLayerType() LayerType { return LayerTypePayload }

// LayerPayload implements Layer.
func (d *DHCPv4) LayerPayload() []byte { return d.payload }

// SerializeTo implements SerializableLayer.
func (d *DHCPv4) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	optLen := 1 // End
	for _, o := range d.Options {
		if len(o.Data) > 255 {
			return fmt.Errorf("%w: DHCP option %d data %d bytes", ErrBadHeader, o.Code, len(o.Data))
		}
		optLen += 2 + len(o.Data)
	}
	h := b.PrependBytes(DHCPFixedLen + optLen)
	for i := range h {
		h[i] = 0
	}
	h[0] = d.Op
	h[1], h[2] = 1, 6 // Ethernet chaddr
	h[3] = d.Hops
	binary.BigEndian.PutUint32(h[4:8], d.XID)
	binary.BigEndian.PutUint16(h[8:10], d.Secs)
	if d.Broadcast {
		binary.BigEndian.PutUint16(h[10:12], 0x8000)
	}
	for i, a := range []netip.Addr{d.ClientIP, d.YourIP, d.ServerIP, d.GatewayIP} {
		if a.IsValid() {
			if !a.Is4() {
				return fmt.Errorf("%w: DHCP requires IPv4 addresses", ErrBadHeader)
			}
			a4 := a.As4()
			copy(h[12+4*i:16+4*i], a4[:])
		}
	}
	copy(h[28:34], d.ClientMAC[:])
	binary.BigEndian.PutUint32(h[236:240], dhcpMagicCookie)
	p := DHCPFixedLen
	for _, o := range d.Options {
		h[p] = o.Code
		h[p+1] = uint8(len(o.Data))
		copy(h[p+2:], o.Data)
		p += 2 + len(o.Data)
	}
	h[p] = DHCPOptEnd
	return nil
}
