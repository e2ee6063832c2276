package apps

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"flexsfp/internal/packet"
)

// outerLayers builds one random outer stack the way the tunnel and mesh
// apps do. mode 0 is GRE without a key, 1 GRE with one, 2 VXLAN, 3 IPIP.
func outerLayers(rng *rand.Rand, mode int) (*packet.Ethernet, *packet.IPv4, *packet.UDP, []packet.SerializableLayer) {
	var src, dst [4]byte
	eth := &packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	rng.Read(src[:])
	rng.Read(dst[:])
	rng.Read(eth.SrcMAC[:])
	rng.Read(eth.DstMAC[:])
	ip := &packet.IPv4{TTL: uint8(1 + rng.Intn(255)), SrcIP: netip.AddrFrom4(src), DstIP: netip.AddrFrom4(dst), DontFrag: true}
	switch mode {
	case 0, 1:
		ip.Protocol = packet.IPProtocolGRE
		gre := &packet.GRE{Protocol: packet.EtherTypeTransparentEthernet}
		if mode == 1 {
			gre.KeyPresent, gre.Key = true, rng.Uint32()
		}
		return eth, ip, nil, []packet.SerializableLayer{gre}
	case 2:
		ip.Protocol = packet.IPProtocolUDP
		udp := &packet.UDP{DstPort: packet.PortVXLAN}
		return eth, ip, udp, []packet.SerializableLayer{udp, &packet.VXLAN{VNI: rng.Uint32() >> 8}}
	}
	ip.Protocol = packet.IPProtocolIPv4
	return eth, ip, nil, nil
}

// serializeOuter is the per-frame path outerHeader replaced, kept as the
// oracle: every layer serialized around the payload with lengths and
// checksums computed.
func serializeOuter(t *testing.T, eth *packet.Ethernet, ip *packet.IPv4, udp *packet.UDP, shim []packet.SerializableLayer, payload []byte) []byte {
	t.Helper()
	if udp != nil {
		udp.SrcPort = uint16(49152 + packet.FNV64(payload[:min(34, len(payload))])%16384)
		if err := udp.SetNetworkLayerForChecksum(ip.SrcIP, ip.DstIP); err != nil {
			t.Fatal(err)
		}
	}
	pl := packet.Payload(payload)
	stack := append(append([]packet.SerializableLayer{eth, ip}, shim...), &pl)
	buf := packet.NewSerializeBuffer()
	if err := packet.SerializeLayers(buf, packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}, stack...); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

// TestOuterHeaderMatchesSerializeLayers: the precomputed header must put
// the bytes on the wire that layer-by-layer serialization does, for
// random endpoints × every mode × payload sizes 0–1500 (odd ones too).
func TestOuterHeaderMatchesSerializeLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		mode := trial % 4
		eth, ip, udp, shim := outerLayers(rng, mode)
		h := newOuterHeader(eth, ip, shim...)
		if h == nil {
			t.Fatalf("mode %d: header did not serialize", mode)
		}
		for _, n := range []int{0, 1, 33, 34, 35, 60, 61, rng.Intn(1501), rng.Intn(1501) | 1} {
			payload := make([]byte, n)
			rng.Read(payload)
			out := h.encap(append([]byte(nil), payload...), 0)
			if want := serializeOuter(t, eth, ip, udp, shim, payload); !bytes.Equal(out, want) {
				t.Fatalf("mode %d payload %d B:\n got %x\nwant %x", mode, n, out[:len(h.hdr)], want[:len(h.hdr)])
			}
		}
	}
}

// TestOuterHeaderUDPChecksumZero steers a VXLAN frame's UDP checksum to
// compute as zero, which RFC 768 transmits as 0xffff.
func TestOuterHeaderUDPChecksumZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	eth, ip, udp, shim := outerLayers(rng, 2)
	h := newOuterHeader(eth, ip, shim...)
	if h == nil {
		t.Fatal("header did not serialize")
	}
	// The last two payload bytes sit past the 34 the source port hashes,
	// so they move the checksum and nothing else. With them zero the
	// frame checksums to c; storing c there brings the sum to all ones.
	payload := make([]byte, 64)
	rng.Read(payload[:62])
	out := h.encap(append([]byte(nil), payload...), 0)
	copy(payload[62:], out[outerUDPOff+6:outerUDPOff+8])
	out = h.encap(append([]byte(nil), payload...), 0)
	if got := binary.BigEndian.Uint16(out[outerUDPOff+6:]); got != 0xffff {
		t.Fatalf("UDP checksum = %#04x, want 0xffff", got)
	}
	if want := serializeOuter(t, eth, ip, udp, shim, payload); !bytes.Equal(out, want) {
		t.Fatal("zero-checksum frame differs from SerializeLayers")
	}
}
