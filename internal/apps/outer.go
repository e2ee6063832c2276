package apps

import (
	"encoding/binary"

	"flexsfp/internal/packet"
)

// outerHeader is a tunnel's outer header stack — Ethernet + IPv4, then
// GRE, or UDP + VXLAN, or nothing (IP-in-IP) — serialized once when the
// control plane names the remote, so wrapping a frame is a shift of the
// payload, a header copy and the handful of fields that depend on the
// payload: the IPv4 total length and header checksum, and for VXLAN the
// UDP length, source port and checksum. The bytes are those
// packet.SerializeLayers produces for the same layers with FixLengths and
// ComputeChecksums.
type outerHeader struct {
	// hdr holds every per-frame field as zero.
	hdr []byte
	// ipSum is the IPv4 header's folded ones' complement sum with the
	// total length and checksum fields zero; adding the length finishes it.
	ipSum uint32
	udp   bool
}

const (
	outerIPOff  = 14 // the outer Ethernet header carries no VLAN tag
	outerUDPOff = outerIPOff + 20
)

// newOuterHeader serializes eth + ip + shim (the layers between the outer
// IPv4 header and the inner frame). ip.Protocol says what follows: with
// IPProtocolUDP the shim must start with the UDP header. It returns nil
// when a layer does not serialize (a VNI over 24 bits); the apps count
// frames toward such a remote as errors, as they did when the failure
// surfaced per frame.
func newOuterHeader(eth *packet.Ethernet, ip *packet.IPv4, shim ...packet.SerializableLayer) *outerHeader {
	stack := append([]packet.SerializableLayer{eth, ip}, shim...)
	buf := packet.NewSerializeBuffer()
	// No FixLengths, no ComputeChecksums: the layers' zero Length and
	// Checksum fields go out as they are.
	if packet.SerializeLayers(buf, packet.SerializeOptions{}, stack...) != nil {
		return nil
	}
	h := &outerHeader{hdr: append([]byte(nil), buf.Bytes()...), udp: ip.Protocol == packet.IPProtocolUDP}
	h.ipSum = uint32(^packet.Checksum(h.hdr[outerIPOff:outerUDPOff]))
	return h
}

// size is the length of payload wrapped in this header.
func (h *outerHeader) size(payload []byte) int { return len(h.hdr) + len(payload) }

// encap wraps frame b, whose payload starts at del (IP-in-IP drops the
// Ethernet header), and returns the wrapped frame: the header is written
// in front of the payload, shifted within b's buffer (packet.Splice).
func (h *outerHeader) encap(b []byte, del int) []byte {
	out := packet.Splice(b, 0, del, len(h.hdr))
	copy(out, h.hdr)
	payload := out[len(h.hdr):]
	ip := out[outerIPOff:outerUDPOff]
	ipLen := uint16(len(out) - outerIPOff)
	binary.BigEndian.PutUint16(ip[2:4], ipLen)
	sum := h.ipSum + uint32(ipLen) // two 16-bit values: one fold finishes it
	sum = sum>>16 + sum&0xffff
	binary.BigEndian.PutUint16(ip[10:12], ^uint16(sum))
	if !h.udp {
		return out
	}
	udp := out[outerUDPOff:]
	// Source-port entropy from the inner frame keeps ECMP balanced.
	binary.BigEndian.PutUint16(udp[0:2], uint16(49152+packet.FNV64(payload[:min(34, len(payload))])%16384))
	binary.BigEndian.PutUint16(udp[4:6], uint16(len(udp)))
	csum := packet.TransportChecksum(udp, ip[12:16], ip[16:20], packet.IPProtocolUDP)
	if csum == 0 {
		csum = 0xffff // RFC 768: transmitted as all ones
	}
	binary.BigEndian.PutUint16(udp[6:8], csum)
	return out
}
