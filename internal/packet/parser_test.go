package packet

import (
	"testing"
)

func TestNewPacketFullStack(t *testing.T) {
	data := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB,
		VLANs: []uint16{42},
		SrcIP: ip61, DstIP: ip62,
		Proto: IPProtocolTCP, SrcPort: 443, DstPort: 555,
	})
	pkt := NewPacket(data, LayerTypeEthernet)
	if pkt.ErrorLayer() != nil {
		t.Fatal(pkt.ErrorLayer())
	}
	for _, want := range []LayerType{LayerTypeEthernet, LayerTypeDot1Q, LayerTypeIPv6, LayerTypeTCP} {
		if pkt.Layer(want) == nil {
			t.Errorf("missing layer %v", want)
		}
	}
	if got := len(pkt.Layers()); got != 4 {
		t.Errorf("Layers() = %d entries, want 4", got)
	}
}

func TestLayerTypeString(t *testing.T) {
	if LayerTypeIPv4.String() != "IPv4" {
		t.Errorf("String = %q", LayerTypeIPv4.String())
	}
	if LayerType(99).String() != "LayerType(99)" {
		t.Errorf("String = %q", LayerType(99).String())
	}
}
