package packet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

// Robustness: decoding arbitrary bytes must never panic, for any entry
// layer — the PPE parses hostile wire data.
func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	entries := []LayerType{
		LayerTypeEthernet, LayerTypeIPv4, LayerTypeIPv6, LayerTypeTCP,
		LayerTypeUDP, LayerTypeICMPv4, LayerTypeGRE, LayerTypeVXLAN,
		LayerTypeDNS, LayerTypeINT, LayerTypeDot1Q, LayerTypeMPLS, LayerTypeARP,
	}
	f := func(data []byte, pick uint8) bool {
		entry := entries[int(pick)%len(entries)]
		// Must not panic; errors are fine.
		pkt := NewPacket(data, entry)
		_ = pkt.Layers()
		_ = pkt.ErrorLayer()
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: runner.NewRand(18)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Robustness: truncating a valid packet at every byte offset must never
// panic and must either decode or error cleanly.
func TestTruncationAtEveryOffset(t *testing.T) {
	full := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB,
		VLANs: []uint16{5},
		SrcIP: ip1, DstIP: ip2,
		Proto: IPProtocolTCP, SrcPort: 80, DstPort: 443,
		Payload: []byte("payload-bytes"),
	})
	for n := 0; n <= len(full); n++ {
		pkt := NewPacket(full[:n], LayerTypeEthernet)
		_ = pkt.Layers()
	}
}

// Robustness: bit-flipping a valid packet must never panic the parser.
func TestBitflipNeverPanics(t *testing.T) {
	full := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: ip1, DstIP: ip2,
		SrcPort: 53, DstPort: 53, // routes into the DNS decoder
		Payload: []byte{0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 1, 0, 1},
	})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		mut := append([]byte(nil), full...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		}
		_ = NewPacket(mut, LayerTypeEthernet).Layers()
	}
}

// Robustness: the view-level DNS name decoder handles adversarial
// compression chains without unbounded work.
func TestDNSPointerChainsBounded(t *testing.T) {
	// Build a message with a long backward pointer chain.
	msg := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	// 20 chained pointers, each pointing 2 bytes back.
	base := len(msg)
	msg = append(msg, 1, 'a', 0) // a real name at base
	for i := 0; i < 20; i++ {
		off := len(msg)
		_ = off
		prev := base
		if i > 0 {
			prev = len(msg) - 2
		}
		msg = append(msg, 0xc0|byte(prev>>8), byte(prev))
	}
	msg = append(msg, 0, 1, 0, 1)
	var d DNS
	// Either decodes or rejects — must return quickly either way.
	_ = d.DecodeFromBytes(msg)
}
