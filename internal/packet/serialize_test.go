package packet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

func TestSerializeBufferPrependAppend(t *testing.T) {
	b := NewSerializeBufferExpectedSize(4, 4)
	copy(b.AppendBytes(3), "cde")
	copy(b.PrependBytes(2), "ab")
	if string(b.Bytes()) != "abcde" {
		t.Errorf("Bytes = %q", b.Bytes())
	}
	if b.Len() != 5 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestSerializeBufferGrowsFront(t *testing.T) {
	b := NewSerializeBufferExpectedSize(2, 2)
	copy(b.PrependBytes(100), bytes.Repeat([]byte{7}, 100))
	if b.Len() != 100 {
		t.Errorf("Len = %d", b.Len())
	}
	for _, c := range b.Bytes() {
		if c != 7 {
			t.Fatal("front growth corrupted data")
		}
	}
}

func TestSerializeBufferClear(t *testing.T) {
	b := NewSerializeBuffer()
	copy(b.AppendBytes(10), bytes.Repeat([]byte{1}, 10))
	b.Clear()
	if b.Len() != 0 {
		t.Errorf("Len after Clear = %d", b.Len())
	}
	// Headroom restored: a prepend must not reallocate for typical headers.
	b.PrependBytes(64)
	if b.Len() != 64 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestSerializeBufferAppendZeroed(t *testing.T) {
	b := NewSerializeBuffer()
	s := b.AppendBytes(8)
	for i := range s {
		s[i] = 0xff
	}
	b.Clear()
	s2 := b.AppendBytes(8)
	for _, c := range s2 {
		if c != 0 {
			t.Fatal("AppendBytes returned dirty memory")
		}
	}
}

func TestBuilderPadTo(t *testing.T) {
	data := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: ip1, DstIP: ip2,
		SrcPort: 1, DstPort: 2,
		PadTo: 64,
	})
	if len(data) != 64 {
		t.Errorf("frame = %d bytes, want 64", len(data))
	}
	pkt := NewPacket(data, LayerTypeEthernet)
	if pkt.ErrorLayer() != nil {
		t.Fatal(pkt.ErrorLayer())
	}
}

func TestBuilderICMP(t *testing.T) {
	data := MustBuild(Spec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: ip1, DstIP: ip2,
		Proto: IPProtocolICMPv4, SrcPort: 3, DstPort: 4,
	})
	pkt := NewPacket(data, LayerTypeEthernet)
	ic := pkt.Layer(LayerTypeICMPv4)
	if ic == nil {
		t.Fatal("no ICMP layer")
	}
	if ic.(*ICMPv4).ID != 3 || ic.(*ICMPv4).Seq != 4 {
		t.Errorf("icmp = %+v", ic)
	}
}

// TestBuilderRejectsICMPv4OverIPv6: an IPv6 frame carrying ICMPv4 (next
// header 1, no pseudo-header checksum) is one no stack accepts.
func TestBuilderRejectsICMPv4OverIPv6(t *testing.T) {
	_, err := Build(Spec{SrcMAC: macA, DstMAC: macB, SrcIP: ip61, DstIP: ip62, Proto: IPProtocolICMPv4})
	if !errors.Is(err, ErrBadHeader) {
		t.Errorf("ICMPv4 over IPv6: err = %v, want ErrBadHeader", err)
	}
}

func TestBuilderRejectsMixedFamilies(t *testing.T) {
	_, err := Build(Spec{SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip62})
	if err == nil {
		t.Error("mixed families accepted")
	}
}

func TestBuilderRejectsMissingIPs(t *testing.T) {
	_, err := Build(Spec{SrcMAC: macA, DstMAC: macB})
	if err == nil {
		t.Error("missing IPs accepted")
	}
}

// Property: every packet the builder produces decodes cleanly back to the
// same 5-tuple, for arbitrary ports and both families. A UDP port the
// decoder dispatches on (DNS 53, DHCP 67/68, VXLAN 4789) gets a payload
// that protocol's decoder accepts, and pick steers a quarter of the cases
// onto one of those ports, which random ports would almost never hit.
func TestBuildDecodeRoundTripProperty(t *testing.T) {
	appPorts := []uint16{PortDNS, PortDHCPServer, PortDHCPClient, PortVXLAN}
	dns := serialize(t, fixOpts, &DNS{ID: 7, RD: true,
		Questions: []DNSQuestion{{Name: "a.example", Type: DNSTypeA, Class: DNSClassIN}}})
	dhcp, err := (&DHCPv4{Op: DHCPOpRequest, XID: 7, ClientMAC: macA,
		Options: []DHCPOption{{Code: DHCPOptMsgType, Data: []byte{byte(DHCPDiscover)}}}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	vxlan := serialize(t, fixOpts, &VXLAN{VNI: 42})
	f := func(sp, dp uint16, useV6, useTCP bool, size, pick uint8) bool {
		if pick%4 == 0 {
			dp = appPorts[int(pick/4)%len(appPorts)]
		}
		filler := bytes.Repeat([]byte{0x5a}, int(size))
		payload, app := filler, LayerTypePayload
		if !useTCP {
			switch (&UDP{SrcPort: sp, DstPort: dp}).NextLayerType() {
			case LayerTypeDNS:
				// A DNS message; bytes after its last record are its payload.
				payload, app = append(append([]byte(nil), dns...), filler...), LayerTypeDNS
			case LayerTypeDHCPv4:
				// Decoding stops at the End option, so trailing bytes pass.
				payload, app = append(append([]byte(nil), dhcp...), filler...), LayerTypeDHCPv4
			case LayerTypeVXLAN:
				// VXLAN carries an Ethernet frame: wrap the filler in one.
				inner := MustBuild(Spec{SrcMAC: macB, DstMAC: macA, SrcIP: ip2, DstIP: ip1,
					SrcPort: 1000, DstPort: 2000, Payload: filler})
				payload, app = append(append([]byte(nil), vxlan...), inner...), LayerTypeVXLAN
			}
		}
		spec := Spec{
			SrcMAC: macA, DstMAC: macB,
			SrcPort: sp, DstPort: dp,
			Payload: payload,
		}
		if useV6 {
			spec.SrcIP, spec.DstIP = ip61, ip62
		} else {
			spec.SrcIP, spec.DstIP = ip1, ip2
		}
		if useTCP {
			spec.Proto = IPProtocolTCP
		}
		data, err := Build(spec)
		if err != nil {
			return false
		}
		pkt := NewPacket(data, LayerTypeEthernet)
		if pkt.ErrorLayer() != nil {
			return false
		}
		if app != LayerTypePayload && pkt.Layer(app) == nil {
			return false
		}
		if useTCP {
			l := pkt.Layer(LayerTypeTCP)
			if l == nil {
				return false
			}
			tc := l.(*TCP)
			return tc.SrcPort == sp && tc.DstPort == dp && len(tc.LayerPayload()) == len(payload)
		}
		l := pkt.Layer(LayerTypeUDP)
		if l == nil {
			return false
		}
		u := l.(*UDP)
		return u.SrcPort == sp && u.DstPort == dp && len(u.LayerPayload()) == len(payload)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(10)}); err != nil {
		t.Error(err)
	}
}

// Property: serialized transport checksums always verify at the receiver.
func TestChecksumAlwaysVerifiesProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		data, err := Build(Spec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
			SrcPort: sp, DstPort: dp, Payload: payload,
		})
		if err != nil {
			return false
		}
		var eth Ethernet
		var ip IPv4
		if eth.DecodeFromBytes(data) != nil || ip.DecodeFromBytes(eth.LayerPayload()) != nil {
			return false
		}
		if !VerifyIPv4Checksum(eth.LayerPayload()) {
			return false
		}
		s4, d4 := ip.SrcIP.As4(), ip.DstIP.As4()
		return TransportChecksum(ip.LayerPayload(), s4[:], d4[:], IPProtocolUDP) == 0
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(11)}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSerializeTCP measures full-stack serialization with checksums.
func BenchmarkSerializeTCP(b *testing.B) {
	eth := &Ethernet{EtherType: EtherTypeIPv4}
	ip := &IPv4{TTL: 64, Protocol: IPProtocolTCP, SrcIP: ip1, DstIP: ip2}
	tcp := &TCP{SrcPort: 1, DstPort: 2, Window: 1000}
	if err := tcp.SetNetworkLayerForChecksum(ip1, ip2); err != nil {
		b.Fatal(err)
	}
	pl := Payload(make([]byte, 64))
	buf := NewSerializeBuffer()
	opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := SerializeLayers(buf, opts, eth, ip, tcp, &pl); err != nil {
			b.Fatal(err)
		}
	}
}
