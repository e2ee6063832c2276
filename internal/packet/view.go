package packet

import "encoding/binary"

// View holds the header offsets of a frame, computed by a single linear
// scan — the software model of the hardware parser stage every PPE
// pipeline shares, and the only parser any production datapath runs. One
// pass fills offsets for L2/VLAN/ARP, IPv4/IPv6 (with extension-header
// skipping), and TCP/UDP/ICMP; lazy accessors read the DNS, DHCPv4, GRE,
// VXLAN and INT headers in place only for the apps that ask. Parse
// allocates nothing, so apps and the traffic generator can keep a View per
// instance and reuse it per frame. The layered decoder (Decode, NewPacket)
// is the inspection tool and the test oracle.
//
// A View is a weaker oracle than Decode on purpose: it ignores the IP
// total-length fields (hardware streams the wire bytes it has), so it can
// report offsets on frames the strict decoder rejects as truncated. The
// FuzzViewVsDecode differential target pins the invariant that matters:
// whenever the full decoder accepts a layer, the View agrees with it, and
// each lazy accessor accepts exactly the bytes its layer decoder accepts.
type View struct {
	Data []byte

	L3Off     int // start of ARP/IPv4/IPv6 header (after VLAN tags)
	VLANEnd   int // byte after the last VLAN tag (== L3Off when tagged)
	NVLAN     int
	EtherType EtherType // EtherType after the VLAN tags

	IsARP  bool
	IsIPv4 bool
	IsIPv6 bool
	Proto  IPProtocol // final protocol after IPv6 extension headers
	L4Off  int        // start of TCP/UDP/ICMP header; 0 if absent/fragment
	L7Off  int        // start of TCP/UDP payload; 0 if absent

	SrcPort, DstPort uint16 // 0 for port-less protocols
}

// maxViewVLANs caps the VLAN stack the parser walks, like the fixed
// extraction window of a hardware parser.
const maxViewVLANs = 4

// maxViewExtHeaders caps the IPv6 extension-header chain.
const maxViewExtHeaders = 8

// Parse fills the view. It returns false for frames too short to carry
// Ethernet or with a malformed L3 header.
func (v *View) Parse(data []byte) bool {
	*v = View{Data: data}
	if len(data) < 14 {
		return false
	}
	et := EtherType(binary.BigEndian.Uint16(data[12:14]))
	off := 14
	for (et == EtherTypeDot1Q || et == EtherTypeQinQ) && v.NVLAN < maxViewVLANs {
		if len(data) < off+4 {
			return false
		}
		et = EtherType(binary.BigEndian.Uint16(data[off+2 : off+4]))
		off += 4
		v.NVLAN++
	}
	v.VLANEnd = off
	v.L3Off = off
	v.EtherType = et
	switch et {
	case EtherTypeIPv4:
		return v.parseIPv4(off)
	case EtherTypeIPv6:
		return v.parseIPv6(off)
	case EtherTypeARP:
		return v.parseARP(off)
	default:
		return true // L2-only frame: valid, no L3 view
	}
}

func (v *View) parseIPv4(off int) bool {
	d := v.Data
	if len(d) < off+20 || d[off]>>4 != 4 {
		return false
	}
	ihl := int(d[off]&0x0f) * 4
	if ihl < 20 || len(d) < off+ihl {
		return false
	}
	v.IsIPv4 = true
	v.Proto = IPProtocol(d[off+9])
	fragOff := binary.BigEndian.Uint16(d[off+6:off+8]) & 0x1fff
	if fragOff == 0 {
		v.L4Off = off + ihl
		v.parseL4()
	}
	return true
}

// parseIPv6 walks the fixed header plus any well-known extension headers
// (hop-by-hop, routing, destination options, fragment) to the real upper
// layer, the way a hardware parser's header-chain FSM does. Unknown next
// headers terminate the walk as the final protocol.
func (v *View) parseIPv6(off int) bool {
	d := v.Data
	if len(d) < off+40 || d[off]>>4 != 6 {
		return false
	}
	v.IsIPv6 = true
	nh := IPProtocol(d[off+6])
	p := off + 40
	for hop := 0; hop < maxViewExtHeaders; hop++ {
		switch nh {
		case IPProtocolIPv6HopByHop, IPProtocolIPv6Routing, IPProtocolIPv6DestOpts:
			if len(d) < p+8 {
				v.Proto = nh // truncated extension header: no L4 view
				return true
			}
			nh = IPProtocol(d[p])
			p += 8 + int(d[p+1])*8
		case IPProtocolIPv6Fragment:
			if len(d) < p+8 {
				v.Proto = nh
				return true
			}
			fragOff := binary.BigEndian.Uint16(d[p+2:p+4]) >> 3
			nh = IPProtocol(d[p])
			p += 8
			if fragOff != 0 {
				// Non-first fragment: the L4 header lives in another
				// frame. Report the protocol, no ports (IPv4 parity).
				v.Proto = nh
				return true
			}
		case IPProtocolIPv6NoNext:
			v.Proto = nh
			return true
		default:
			v.Proto = nh
			if p <= len(d) {
				v.L4Off = p
				v.parseL4()
			}
			return true
		}
	}
	v.Proto = nh // chain longer than any sane frame: stop without L4
	return true
}

// parseARP validates the fixed IPv4-over-Ethernet ARP shape (the only one
// the catalog speaks, matching the full ARP layer decoder).
func (v *View) parseARP(off int) bool {
	d := v.Data
	if len(d) < off+28 {
		return true // runt ARP: L2-valid, no ARP view
	}
	if binary.BigEndian.Uint16(d[off:off+2]) != 1 ||
		EtherType(binary.BigEndian.Uint16(d[off+2:off+4])) != EtherTypeIPv4 ||
		d[off+4] != 6 || d[off+5] != 4 {
		return true
	}
	v.IsARP = true
	return true
}

func (v *View) parseL4() {
	d := v.Data
	switch v.Proto {
	case IPProtocolTCP:
		if len(d) >= v.L4Off+4 {
			v.SrcPort = binary.BigEndian.Uint16(d[v.L4Off:])
			v.DstPort = binary.BigEndian.Uint16(d[v.L4Off+2:])
			if len(d) >= v.L4Off+13 {
				if dataOff := v.L4Off + int(d[v.L4Off+12]>>4)*4; dataOff >= v.L4Off+20 && dataOff <= len(d) {
					v.L7Off = dataOff
				}
			}
		} else {
			v.L4Off = 0
		}
	case IPProtocolUDP:
		if len(d) >= v.L4Off+4 {
			v.SrcPort = binary.BigEndian.Uint16(d[v.L4Off:])
			v.DstPort = binary.BigEndian.Uint16(d[v.L4Off+2:])
			if len(d) >= v.L4Off+8 {
				v.L7Off = v.L4Off + 8
			}
		} else {
			v.L4Off = 0
		}
	}
}

// SrcIPv4 / DstIPv4 return address slices (valid only when IsIPv4).

// SrcIPv4 returns the IPv4 source address bytes.
func (v *View) SrcIPv4() []byte { return v.Data[v.L3Off+12 : v.L3Off+16] }

// DstIPv4 returns the IPv4 destination address bytes.
func (v *View) DstIPv4() []byte { return v.Data[v.L3Off+16 : v.L3Off+20] }

// IPv4HeaderLen returns the IPv4 header length in bytes.
func (v *View) IPv4HeaderLen() int { return int(v.Data[v.L3Off]&0x0f) * 4 }

// ARP field accessors, valid only when IsARP.

// ARPSenderMAC returns the 6-byte sender hardware address.
func (v *View) ARPSenderMAC() []byte { return v.Data[v.L3Off+8 : v.L3Off+14] }

// ARPSenderIP returns the 4-byte sender protocol address.
func (v *View) ARPSenderIP() []byte { return v.Data[v.L3Off+14 : v.L3Off+18] }

// Incremental checksum update per RFC 1624: HC' = ~(~HC + ~m + m').

// CsumUpdate16 folds the replacement of old16 by new16 into the checksum
// stored at data[at:at+2] (stored as the complement, per the Internet
// checksum convention). A stored checksum of 0 (UDP "no checksum") is
// left alone.
func CsumUpdate16(data []byte, at int, old16, new16 uint16) {
	stored := binary.BigEndian.Uint16(data[at:])
	if stored == 0 {
		return
	}
	binary.BigEndian.PutUint16(data[at:], FinishChecksum(uint32(^stored)+uint32(^old16)+uint32(new16)))
}

// CsumUpdate32 folds a 4-byte field replacement into a checksum.
func CsumUpdate32(data []byte, at int, old4, new4 []byte) {
	CsumUpdate16(data, at, binary.BigEndian.Uint16(old4[0:2]), binary.BigEndian.Uint16(new4[0:2]))
	CsumUpdate16(data, at, binary.BigEndian.Uint16(old4[2:4]), binary.BigEndian.Uint16(new4[2:4]))
}

// L4ChecksumOffset returns the absolute offset of the L4 checksum field,
// or -1 when the protocol has none we patch.
func (v *View) L4ChecksumOffset() int {
	if v.L4Off == 0 {
		return -1
	}
	switch v.Proto {
	case IPProtocolTCP:
		if len(v.Data) >= v.L4Off+18 {
			return v.L4Off + 16
		}
	case IPProtocolUDP:
		if len(v.Data) >= v.L4Off+8 {
			return v.L4Off + 6
		}
	}
	return -1
}

// RewriteIPv4Addr replaces the 4-byte address at addrOff, fixing the IPv4
// header checksum and the L4 pseudo-header checksum.
func (v *View) RewriteIPv4Addr(addrOff int, newAddr []byte) {
	var old [4]byte // stack copy: this runs once per translated packet
	copy(old[:], v.Data[addrOff:addrOff+4])
	copy(v.Data[addrOff:addrOff+4], newAddr)
	CsumUpdate32(v.Data, v.L3Off+10, old[:], newAddr)
	if at := v.L4ChecksumOffset(); at >= 0 {
		CsumUpdate32(v.Data, at, old[:], newAddr)
	}
}

// FNV64 hashes b with FNV-1a (the software stand-in for the PPE's hash
// unit).
func FNV64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// FiveTupleKeyBits is the ACL/LB/flow key width.
const FiveTupleKeyBits = 104

// FiveTupleKey packs the 104-bit (13-byte) 5-tuple match key used by the
// ACL, LB and flow-accounting tables: srcIP(4) dstIP(4) sport(2) dport(2)
// proto(1). IPv6 flows fold their addresses to 32 bits by hashing, which
// is what a key-width-limited pipeline does.
func (v *View) FiveTupleKey(buf []byte) []byte {
	// Direct stores at fixed offsets — the key register a real pipeline
	// latches field by field, with no intermediate slices.
	key := buf[:13]
	switch {
	case v.IsIPv4:
		copy(key[0:4], v.SrcIPv4())
		copy(key[4:8], v.DstIPv4())
	case v.IsIPv6:
		s := FNV64(v.Data[v.L3Off+8 : v.L3Off+24])
		d := FNV64(v.Data[v.L3Off+24 : v.L3Off+40])
		binary.BigEndian.PutUint32(key[0:4], uint32(s))
		binary.BigEndian.PutUint32(key[4:8], uint32(d))
	default:
		for i := 0; i < 8; i++ {
			key[i] = 0
		}
	}
	binary.BigEndian.PutUint16(key[8:10], v.SrcPort)
	binary.BigEndian.PutUint16(key[10:12], v.DstPort)
	key[12] = byte(v.Proto)
	return key
}

// DNS fast-path accessors: fixed-header fields read straight off the
// wire, for match-action pipelines that cannot afford the full decoder.

// DNSPayload returns the DNS message bytes when the frame is UDP to or
// from port 53 with at least a full 12-byte DNS header present.
func (v *View) DNSPayload() ([]byte, bool) {
	if v.Proto != IPProtocolUDP || v.L7Off == 0 ||
		(v.SrcPort != PortDNS && v.DstPort != PortDNS) ||
		len(v.Data) < v.L7Off+12 {
		return nil, false
	}
	return v.Data[v.L7Off:], true
}

// DNSIsResponse reports the QR bit (valid when DNSPayload ok).
func (v *View) DNSIsResponse() bool { return v.Data[v.L7Off+2]&0x80 != 0 }

// DNSQName appends the first question's name, lowercased and
// dot-separated, to buf and returns the extended slice. It reads labels
// in place with no intermediate allocation; compressed names (illegal in
// a first question) and malformed labels return ok=false.
func (v *View) DNSQName(buf []byte) (name []byte, ok bool) {
	msg, ok := v.DNSPayload()
	if !ok || binary.BigEndian.Uint16(msg[4:6]) == 0 {
		return buf, false
	}
	p := 12
	for {
		if p >= len(msg) {
			return buf, false
		}
		l := int(msg[p])
		if l == 0 {
			return buf, true
		}
		if l >= 0xc0 || p+1+l > len(msg) || len(buf)+l+1 > 255 {
			return buf, false
		}
		if len(buf) > 0 {
			buf = append(buf, '.')
		}
		for _, c := range msg[p+1 : p+1+l] {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf = append(buf, c)
		}
		p += 1 + l
	}
}

// DHCPv4 fast-path accessors: fixed BOOTP fields plus a linear option
// scan, valid when the frame is UDP on the DHCP ports with a full
// fixed header and magic cookie.

// DHCPPayload returns the DHCP message bytes when the frame is UDP
// between ports 67/68 with the 240-byte fixed header and magic cookie.
func (v *View) DHCPPayload() ([]byte, bool) {
	if v.Proto != IPProtocolUDP || v.L7Off == 0 {
		return nil, false
	}
	dhcpPort := func(p uint16) bool { return p == PortDHCPServer || p == PortDHCPClient }
	if !dhcpPort(v.SrcPort) && !dhcpPort(v.DstPort) {
		return nil, false
	}
	msg := v.Data[v.L7Off:]
	if len(msg) < DHCPFixedLen || binary.BigEndian.Uint32(msg[236:240]) != dhcpMagicCookie {
		return nil, false
	}
	return msg, true
}

// DHCPOp returns the BOOTP op (1 request, 2 reply); valid when
// DHCPPayload ok.
func (v *View) DHCPOp() uint8 { return v.Data[v.L7Off] }

// DHCPClientMAC returns the 6-byte chaddr; valid when DHCPPayload ok.
func (v *View) DHCPClientMAC() []byte { return v.Data[v.L7Off+28 : v.L7Off+34] }

// DHCPClientIP returns ciaddr; valid when DHCPPayload ok.
func (v *View) DHCPClientIP() []byte { return v.Data[v.L7Off+12 : v.L7Off+16] }

// DHCPYourIP returns yiaddr (the address a server offers/assigns); valid
// when DHCPPayload ok.
func (v *View) DHCPYourIP() []byte { return v.Data[v.L7Off+16 : v.L7Off+20] }

// DHCPMsgType scans the options for option 53 and returns the DHCP
// message type (Discover/Offer/Request/Ack/...), or ok=false when absent
// or malformed.
func (v *View) DHCPMsgType() (DHCPMsgType, bool) {
	msg, ok := v.DHCPPayload()
	if !ok {
		return 0, false
	}
	p := DHCPFixedLen
	for p < len(msg) {
		code := msg[p]
		switch code {
		case DHCPOptPad:
			p++
		case DHCPOptEnd:
			return 0, false
		default:
			if p+2 > len(msg) {
				return 0, false
			}
			l := int(msg[p+1])
			if p+2+l > len(msg) {
				return 0, false
			}
			if code == DHCPOptMsgType && l == 1 {
				return DHCPMsgType(msg[p+2]), true
			}
			p += 2 + l
		}
	}
	return 0, false
}

// Tunnel fast-path accessors: the GRE header at L4Off and the VXLAN header
// at L7Off, read in place. Parse never looks at them, so only the apps that
// decapsulate pay for them.

// GREHeaderLen returns the length of the GRE header at L4Off — 4 bytes
// plus 4 for each of the checksum, key and sequence fields present — when
// the frame's protocol is GRE and the header is version 0 and complete.
func (v *View) GREHeaderLen() (int, bool) {
	if v.Proto != IPProtocolGRE || v.L4Off == 0 || len(v.Data) < v.L4Off+4 {
		return 0, false
	}
	flags := binary.BigEndian.Uint16(v.Data[v.L4Off:])
	if flags&0x0007 != 0 {
		return 0, false
	}
	n := 4
	for _, bit := range [...]uint16{0x8000, 0x2000, 0x1000} { // checksum, key, sequence
		if flags&bit != 0 {
			n += 4
		}
	}
	if len(v.Data) < v.L4Off+n {
		return 0, false
	}
	return n, true
}

// GREProtocol returns the GRE protocol type (valid when GREHeaderLen ok).
func (v *View) GREProtocol() EtherType {
	return EtherType(binary.BigEndian.Uint16(v.Data[v.L4Off+2:]))
}

// GREKey returns the GRE key and whether the header carries one (valid
// when GREHeaderLen ok). The key follows the checksum word when both are
// present.
func (v *View) GREKey() (key uint32, present bool) {
	flags := binary.BigEndian.Uint16(v.Data[v.L4Off:])
	if flags&0x2000 == 0 {
		return 0, false
	}
	off := v.L4Off + 4
	if flags&0x8000 != 0 {
		off += 4
	}
	return binary.BigEndian.Uint32(v.Data[off:]), true
}

// VXLANHeaderLen is the size of the VXLAN header.
const VXLANHeaderLen = 8

// VXLANVNI returns the 24-bit VNI when the frame is UDP to port 4789 with
// a complete VXLAN header at L7Off whose I flag is set. The inner frame
// starts at L7Off+VXLANHeaderLen.
func (v *View) VXLANVNI() (uint32, bool) {
	if v.Proto != IPProtocolUDP || v.DstPort != PortVXLAN || v.L7Off == 0 ||
		len(v.Data) < v.L7Off+VXLANHeaderLen || v.Data[v.L7Off]&0x08 == 0 {
		return 0, false
	}
	return binary.BigEndian.Uint32(v.Data[v.L7Off+4:]) >> 8, true
}

// INT fast-path accessors: the FlexSFP telemetry shim read in place at
// L3Off, for frames whose EtherType is EtherTypeINT.

// INTHops returns the shim's hop count when the frame carries a version-1
// INT shim with at most INTMaxHops hop records, all present.
func (v *View) INTHops() (int, bool) {
	d := v.Data
	if v.EtherType != EtherTypeINT || len(d) < v.L3Off+4 || d[v.L3Off]>>4 != INTVersion {
		return 0, false
	}
	hops := int(d[v.L3Off+1])
	if hops > INTMaxHops || len(d) < v.L3Off+4+hops*INTHopSize {
		return 0, false
	}
	return hops, true
}

// INTShimLen returns the shim size in bytes (valid when INTHops ok).
func (v *View) INTShimLen() int { return 4 + int(v.Data[v.L3Off+1])*INTHopSize }

// INTOriginalEtherType returns the EtherType the shim displaced (valid
// when INTHops ok).
func (v *View) INTOriginalEtherType() EtherType {
	return EtherType(binary.BigEndian.Uint16(v.Data[v.L3Off+2:]))
}

// INTHop returns hop record i (valid when INTHops ok and i < hops).
func (v *View) INTHop(i int) INTHop {
	r := v.Data[v.L3Off+4+i*INTHopSize:]
	return INTHop{
		DeviceID:    binary.BigEndian.Uint32(r[0:4]),
		IngressPort: binary.BigEndian.Uint16(r[4:6]),
		EgressPort:  binary.BigEndian.Uint16(r[6:8]),
		TimestampNs: binary.BigEndian.Uint64(r[8:16]),
	}
}
