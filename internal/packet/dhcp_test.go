package packet

import (
	"net/netip"
	"testing"
)

func dhcpSample(t *testing.T) []byte {
	t.Helper()
	msg := DHCPv4{
		Op: DHCPOpReply, XID: 0x01020304, Secs: 7,
		YourIP:    netip.MustParseAddr("10.0.0.42"),
		ServerIP:  netip.MustParseAddr("10.0.0.1"),
		ClientMAC: macA,
		Options: []DHCPOption{
			{Code: DHCPOptMsgType, Data: []byte{byte(DHCPAck)}},
			{Code: DHCPOptServerID, Data: []byte{10, 0, 0, 1}},
			{Code: DHCPOptLeaseTime, Data: []byte{0, 0, 0x0e, 0x10}},
		},
	}
	b, err := msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDHCPv4RoundTrip(t *testing.T) {
	wire := dhcpSample(t)
	var d DHCPv4
	if err := d.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if d.Op != DHCPOpReply || d.XID != 0x01020304 || d.Secs != 7 {
		t.Fatalf("fixed fields: %+v", d)
	}
	if d.YourIP != netip.MustParseAddr("10.0.0.42") || d.ClientMAC != macA {
		t.Fatalf("addresses: %+v", d)
	}
	if mt, ok := d.MsgType(); !ok || mt != DHCPAck {
		t.Fatalf("msg type: %v %v", mt, ok)
	}
	if sid, ok := d.Option(DHCPOptServerID); !ok || len(sid) != 4 || sid[0] != 10 {
		t.Fatalf("server id: %v %v", sid, ok)
	}
}

func TestDHCPv4DecodeRejects(t *testing.T) {
	wire := dhcpSample(t)
	var d DHCPv4
	if err := d.DecodeFromBytes(wire[:100]); err == nil {
		t.Fatal("short message accepted")
	}
	bad := append([]byte(nil), wire...)
	bad[236] = 0 // clobber magic cookie
	if err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("missing cookie accepted")
	}
	trunc := append([]byte(nil), wire[:DHCPFixedLen+1]...) // option code, no length
	trunc[DHCPFixedLen] = DHCPOptMsgType
	if err := d.DecodeFromBytes(trunc); err == nil {
		t.Fatal("truncated option accepted")
	}
}

// Decoding reuses the Options slice across calls, like the DNS layer, so
// a caller decoding in a loop can hold one DHCPv4 struct per pipeline.
func TestDHCPv4OptionReuse(t *testing.T) {
	wire := dhcpSample(t)
	var d DHCPv4
	if err := d.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	first := cap(d.Options)
	for i := 0; i < 8; i++ {
		if err := d.DecodeFromBytes(wire); err != nil {
			t.Fatal(err)
		}
	}
	if cap(d.Options) != first || len(d.Options) != 3 {
		t.Fatalf("options slice not reused: cap %d→%d len %d", first, cap(d.Options), len(d.Options))
	}
}

// MsgType returns the option-53 message type, if present.
func (d *DHCPv4) MsgType() (DHCPMsgType, bool) {
	if data, ok := d.Option(DHCPOptMsgType); ok && len(data) == 1 {
		return DHCPMsgType(data[0]), true
	}
	return 0, false
}

// Option returns the first option with the given code.
func (d *DHCPv4) Option(code uint8) ([]byte, bool) {
	for _, o := range d.Options {
		if o.Code == code {
			return o.Data, true
		}
	}
	return nil, false
}
