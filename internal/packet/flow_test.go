package packet

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

func TestFlowFastHashSymmetric(t *testing.T) {
	f := Flow{
		Proto: IPProtocolTCP,
		Src:   Endpoint{IP: ip1, Port: 1234},
		Dst:   Endpoint{IP: ip2, Port: 80},
	}
	if f.FastHash() != f.Reverse().FastHash() {
		t.Error("FastHash is not symmetric")
	}
	if f.Hash() == f.Reverse().Hash() {
		t.Error("directional Hash should differ for reversed flow (collision this unlikely indicates a bug)")
	}
}

func TestFlowHashProtocolSensitive(t *testing.T) {
	f := Flow{Proto: IPProtocolTCP, Src: Endpoint{IP: ip1, Port: 1}, Dst: Endpoint{IP: ip2, Port: 2}}
	g := f
	g.Proto = IPProtocolUDP
	if f.FastHash() == g.FastHash() {
		t.Error("FastHash ignores protocol")
	}
}

func TestFlowFastHashSymmetricProperty(t *testing.T) {
	f := func(a, b [4]byte, pa, pb uint16, proto uint8) bool {
		fl := Flow{
			Proto: IPProtocol(proto),
			Src:   Endpoint{IP: netip.AddrFrom4(a), Port: pa},
			Dst:   Endpoint{IP: netip.AddrFrom4(b), Port: pb},
		}
		return fl.FastHash() == fl.Reverse().FastHash()
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(9)}); err != nil {
		t.Error(err)
	}
}

func TestFlowFastHashDistribution(t *testing.T) {
	// Hash 10k distinct flows into 8 buckets; no bucket should be wildly
	// off 1/8 (loose bound: within ±30%).
	const flows = 10000
	const buckets = 8
	var counts [buckets]int
	for i := 0; i < flows; i++ {
		var a, b [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(i)|0x0a000000)
		binary.BigEndian.PutUint32(b[:], uint32(i*7+1)|0xc0000000)
		f := Flow{
			Proto: IPProtocolTCP,
			Src:   Endpoint{IP: netip.AddrFrom4(a), Port: uint16(i)},
			Dst:   Endpoint{IP: netip.AddrFrom4(b), Port: 443},
		}
		counts[f.FastHash()%buckets]++
	}
	want := flows / buckets
	for i, c := range counts {
		if c < want*7/10 || c > want*13/10 {
			t.Errorf("bucket %d has %d flows, want ≈%d", i, c, want)
		}
	}
}

func TestFlowFromIPv4(t *testing.T) {
	ip := &IPv4{Protocol: IPProtocolTCP, SrcIP: ip1, DstIP: ip2}
	f := FlowFromIPv4(ip, 5, 6)
	if f.Proto != IPProtocolTCP || f.Src.IP != ip1 || f.Dst.Port != 6 {
		t.Errorf("flow = %+v", f)
	}
}

func TestFlowFromIPv6(t *testing.T) {
	ip := &IPv6{NextHeader: IPProtocolUDP, SrcIP: ip61, DstIP: ip62}
	f := FlowFromIPv6(ip, 53, 5353)
	if f.Proto != IPProtocolUDP || f.Src.IP != ip61 || f.Src.Port != 53 {
		t.Errorf("flow = %+v", f)
	}
}

func TestFlowAsMapKey(t *testing.T) {
	m := map[Flow]int{}
	f := Flow{Proto: IPProtocolTCP, Src: Endpoint{IP: ip1, Port: 1}, Dst: Endpoint{IP: ip2, Port: 2}}
	m[f] = 42
	if m[f] != 42 {
		t.Error("flow not usable as map key")
	}
	if _, ok := m[f.Reverse()]; ok {
		t.Error("reversed flow should be a distinct key")
	}
}

func TestEndpointString(t *testing.T) {
	e := Endpoint{IP: ip1, Port: 99}
	if e.String() != "10.0.0.1:99" {
		t.Errorf("String = %q", e.String())
	}
}

// BenchmarkFlowFastHash measures the symmetric flow hash used for
// load-balancer steering.
func BenchmarkFlowFastHash(b *testing.B) {
	f := Flow{
		Proto: IPProtocolTCP,
		Src:   Endpoint{IP: ip1, Port: 1234},
		Dst:   Endpoint{IP: ip2, Port: 443},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.FastHash() == 0 {
			b.Fatal("zero hash")
		}
	}
}
