package packet

// Native go-fuzz harnesses for the frame parsers. These complement the
// quick-based robustness tests in fuzz_test.go: the engine saves crashing
// inputs as a corpus and mutates from realistic seeds instead of pure
// noise. `make check` runs each target briefly; longer runs via
// `go test -fuzz=FuzzPacketDecode ./internal/packet`.

import "testing"

var fuzzEntryLayers = []LayerType{
	LayerTypeEthernet, LayerTypeIPv4, LayerTypeIPv6, LayerTypeTCP,
	LayerTypeUDP, LayerTypeICMPv4, LayerTypeGRE, LayerTypeVXLAN,
	LayerTypeDNS, LayerTypeINT, LayerTypeDot1Q, LayerTypeMPLS, LayerTypeARP,
}

func fuzzSeedFrames() [][]byte {
	return [][]byte{
		MustBuild(Spec{
			SrcMAC: macA, DstMAC: macB,
			SrcIP: ip1, DstIP: ip2,
			Proto: IPProtocolTCP, SrcPort: 80, DstPort: 443,
			Payload: []byte("payload-bytes"),
		}),
		MustBuild(Spec{
			SrcMAC: macA, DstMAC: macB,
			VLANs: []uint16{5, 100},
			SrcIP: ip1, DstIP: ip2,
			Proto: IPProtocolUDP, SrcPort: 53, DstPort: 53,
			Payload: []byte{0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 1, 0, 1},
		}),
		MustBuild(Spec{
			SrcMAC: macA, DstMAC: macB,
			SrcIP: ip61, DstIP: ip62,
			Proto: IPProtocolUDP, SrcPort: 4789, DstPort: 4789,
			Payload: []byte("vxlan-ish"),
		}),
		{0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 1, 0, 1}, // bare DNS message
	}
}

// FuzzPacketDecode: decoding arbitrary bytes from any entry layer must
// never panic — the PPE parses hostile wire data.
func FuzzPacketDecode(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		for pick := range fuzzEntryLayers {
			f.Add(frame, uint8(pick))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		entry := fuzzEntryLayers[int(pick)%len(fuzzEntryLayers)]
		pkt := NewPacket(data, entry)
		// Walking every decoded layer exercises the lazy paths; errors
		// are expected, panics are the bug.
		for _, l := range pkt.Layers() {
			_ = l.LayerType()
			_ = l.LayerPayload()
		}
		_ = pkt.ErrorLayer()
	})
}
