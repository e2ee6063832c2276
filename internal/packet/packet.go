// Package packet implements a compact, allocation-conscious packet library
// in the style of gopacket. View, a single-pass parser with lazy field
// accessors, is the only parser the datapath runs. The typed layers with
// zero-copy decoding (DecodeFromBytes, NewPacket) are the inspection tool
// and the test oracle View is checked against. The package also provides
// reverse-order serialization with length/checksum fixup and symmetric
// flow hashing for load balancing.
//
// It covers the protocols the FlexSFP paper's use cases need: Ethernet,
// 802.1Q/QinQ VLAN, MPLS, ARP, IPv4, IPv6, TCP, UDP, ICMPv4, GRE, VXLAN,
// a compact DNS view, and an INT-style telemetry shim.
package packet

import (
	"errors"
	"fmt"
)

// LayerType identifies a protocol layer.
type LayerType int

// Known layer types.
const (
	LayerTypeZero LayerType = iota
	LayerTypeEthernet
	LayerTypeDot1Q
	LayerTypeMPLS
	LayerTypeARP
	LayerTypeIPv4
	LayerTypeIPv6
	LayerTypeTCP
	LayerTypeUDP
	LayerTypeICMPv4
	LayerTypeGRE
	LayerTypeVXLAN
	LayerTypeDNS
	LayerTypeINT
	LayerTypeDHCPv4
	LayerTypePayload
	layerTypeMax
)

var layerTypeNames = [...]string{
	LayerTypeZero:     "Zero",
	LayerTypeEthernet: "Ethernet",
	LayerTypeDot1Q:    "Dot1Q",
	LayerTypeMPLS:     "MPLS",
	LayerTypeARP:      "ARP",
	LayerTypeIPv4:     "IPv4",
	LayerTypeIPv6:     "IPv6",
	LayerTypeTCP:      "TCP",
	LayerTypeUDP:      "UDP",
	LayerTypeICMPv4:   "ICMPv4",
	LayerTypeGRE:      "GRE",
	LayerTypeVXLAN:    "VXLAN",
	LayerTypeDNS:      "DNS",
	LayerTypeINT:      "INT",
	LayerTypeDHCPv4:   "DHCPv4",
	LayerTypePayload:  "Payload",
}

func (t LayerType) String() string {
	if t > LayerTypeZero && t < layerTypeMax {
		return layerTypeNames[t]
	}
	return fmt.Sprintf("LayerType(%d)", int(t))
}

// EtherType values used by the decoder.
type EtherType uint16

// Known EtherTypes.
const (
	EtherTypeIPv4        EtherType = 0x0800
	EtherTypeARP         EtherType = 0x0806
	EtherTypeDot1Q       EtherType = 0x8100
	EtherTypeQinQ        EtherType = 0x88A8
	EtherTypeIPv6        EtherType = 0x86DD
	EtherTypeMPLSUnicast EtherType = 0x8847
	// EtherTypeFlexControl carries in-band FlexSFP control frames
	// (IEEE 802 local experimental EtherType 1).
	EtherTypeFlexControl EtherType = 0x88B5
	// EtherTypeINT carries the INT-style telemetry shim inserted by the
	// telemetry app (IEEE 802 local experimental EtherType 2).
	EtherTypeINT EtherType = 0x88B6
)

// IPProtocol values used by the decoder.
type IPProtocol uint8

// Known IP protocol numbers.
const (
	IPProtocolICMPv4 IPProtocol = 1
	IPProtocolTCP    IPProtocol = 6
	IPProtocolUDP    IPProtocol = 17
	IPProtocolGRE    IPProtocol = 47
	IPProtocolIPv4   IPProtocol = 4 // IP-in-IP encapsulation
	IPProtocolIPv6   IPProtocol = 41

	// IPv6 extension headers the View parser skips (plus ICMPv6, which it
	// reports as the final protocol).
	IPProtocolIPv6HopByHop IPProtocol = 0
	IPProtocolIPv6Routing  IPProtocol = 43
	IPProtocolIPv6Fragment IPProtocol = 44
	IPProtocolICMPv6       IPProtocol = 58
	IPProtocolIPv6NoNext   IPProtocol = 59
	IPProtocolIPv6DestOpts IPProtocol = 60
)

// Decoding errors.
var (
	ErrTooShort  = errors.New("packet: data too short for layer")
	ErrBadHeader = errors.New("packet: malformed header")
	ErrTruncated = errors.New("packet: payload truncated relative to header length")
)

// Layer is the common interface of all decoded layers.
type Layer interface {
	// LayerType returns the type of this layer.
	LayerType() LayerType
	// DecodeFromBytes decodes the layer from data, retaining references
	// into data (zero copy). It must not retain data past the next call.
	DecodeFromBytes(data []byte) error
	// NextLayerType returns the type of the layer carried in the payload,
	// or LayerTypePayload when opaque.
	NextLayerType() LayerType
	// LayerPayload returns the bytes after this layer's header.
	LayerPayload() []byte
}

// SerializableLayer is implemented by layers that can write themselves.
type SerializableLayer interface {
	Layer
	// SerializeTo prepends this layer's wire format to b. When
	// opts.FixLengths is set the layer updates its length fields from the
	// bytes already in b; when opts.ComputeChecksums is set it computes
	// checksums.
	SerializeTo(b *SerializeBuffer, opts SerializeOptions) error
}

// Packet is the convenience (allocating) decode path: it decodes data into
// a list of freshly allocated layers. Use View in fast paths.
type Packet struct {
	layers []Layer
	data   []byte
	err    error
}

// NewPacket fully decodes data starting at first. Decoding errors are
// recorded, not returned: inspect ErrorLayer.
func NewPacket(data []byte, first LayerType) *Packet {
	pkt := &Packet{data: data}
	typ := first
	for typ != LayerTypeZero && typ != LayerTypePayload {
		l := newLayer(typ)
		if l == nil {
			break
		}
		if err := l.DecodeFromBytes(data); err != nil {
			pkt.err = fmt.Errorf("decoding %v: %w", typ, err)
			break
		}
		pkt.layers = append(pkt.layers, l)
		data = l.LayerPayload()
		typ = l.NextLayerType()
		if len(data) == 0 {
			break
		}
	}
	return pkt
}

func newLayer(t LayerType) Layer {
	switch t {
	case LayerTypeEthernet:
		return &Ethernet{}
	case LayerTypeDot1Q:
		return &Dot1Q{}
	case LayerTypeMPLS:
		return &MPLS{}
	case LayerTypeARP:
		return &ARP{}
	case LayerTypeIPv4:
		return &IPv4{}
	case LayerTypeIPv6:
		return &IPv6{}
	case LayerTypeTCP:
		return &TCP{}
	case LayerTypeUDP:
		return &UDP{}
	case LayerTypeICMPv4:
		return &ICMPv4{}
	case LayerTypeGRE:
		return &GRE{}
	case LayerTypeVXLAN:
		return &VXLAN{}
	case LayerTypeDNS:
		return &DNS{}
	case LayerTypeINT:
		return &INT{}
	case LayerTypeDHCPv4:
		return &DHCPv4{}
	default:
		return nil
	}
}

// Layer returns the first decoded layer of type t, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// Layers returns all decoded layers in order.
func (p *Packet) Layers() []Layer { return p.layers }

// ErrorLayer returns the decoding error, if any.
func (p *Packet) ErrorLayer() error { return p.err }

// Data returns the raw packet bytes.
func (p *Packet) Data() []byte { return p.data }
