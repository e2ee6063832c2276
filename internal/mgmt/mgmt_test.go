package mgmt

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/runner"
)

// statefulApp exposes one of each control-plane object.
type statefulApp struct {
	prog  *ppe.Program
	state *ppe.State
}

func newStatefulApp() core.App {
	a := &statefulApp{state: ppe.NewState()}
	a.state.AddTable(ppe.TableSpec{Name: "nat", Kind: ppe.TableExact, KeyBits: 32, ValueBits: 32, Size: 1024})
	a.state.AddTernary(ppe.TableSpec{Name: "acl", Kind: ppe.TableTernary, KeyBits: 32, ValueBits: 8, Size: 16})
	a.state.AddCounters("stats", 4)
	a.state.AddMeters("police", 2)
	a.state.AddRegister("seq")
	a.prog = &ppe.Program{
		Name:        "stateful",
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet},
		Tables: []ppe.TableSpec{
			{Name: "nat", Kind: ppe.TableExact, KeyBits: 32, ValueBits: 32, Size: 1024},
			{Name: "acl", Kind: ppe.TableTernary, KeyBits: 32, ValueBits: 8, Size: 16},
		},
		Stages:  1,
		Handler: ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict { return ppe.VerdictPass }),
	}
	return a
}

func (a *statefulApp) Program() *ppe.Program    { return a.prog }
func (a *statefulApp) State() *ppe.State        { return a.state }
func (a *statefulApp) Configure(c []byte) error { return nil }

var fleetKey = []byte("fleet-secret")

func newAgentModule(t *testing.T) (*core.Module, *Agent, *netsim.Simulator) {
	t.Helper()
	sim := netsim.New(1)
	reg := core.NewRegistry()
	reg.Register("stateful", newStatefulApp)
	m := core.NewModule(core.Config{
		Sim: sim, Name: "sfp-7", DeviceID: 7,
		Shell: hls.TwoWayCore, Registry: reg, AuthKey: fleetKey,
	})
	app := newStatefulApp()
	d, err := hls.Compile(app.Program(), hls.Options{ClockHz: 156_250_000, DatapathBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := d.Bitstream.Encode()
	if _, err := m.Install(1, enc); err != nil {
		t.Fatal(err)
	}
	if err := m.BootSync(1); err != nil {
		t.Fatal(err)
	}
	return m, NewAgent(m), sim
}

func newDirectClient(a *Agent) *Client {
	return NewClient(TransportFunc(func(req []byte) ([]byte, error) {
		return a.Handle(req), nil
	}))
}

func TestPing(t *testing.T) {
	_, a, _ := newAgentModule(t)
	c := newDirectClient(a)
	info, err := c.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "sfp-7" || info.DeviceID != 7 || info.AppName != "stateful" || !info.Running {
		t.Errorf("info = %+v", info)
	}
}

func TestTableLifecycle(t *testing.T) {
	_, a, _ := newAgentModule(t)
	c := newDirectClient(a)
	key := []byte{10, 0, 0, 1}
	val := []byte{192, 0, 2, 1}
	if err := c.TableAdd("nat", key, val); err != nil {
		t.Fatal(err)
	}
	got, err := c.TableGet("nat", key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Errorf("get = %x", got)
	}
	dump, err := c.TableDump("nat")
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) != 1 || !bytes.Equal(dump[0].Key, key) {
		t.Errorf("dump = %+v", dump)
	}
	if err := c.TableDel("nat", key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TableGet("nat", key); err == nil {
		t.Error("deleted entry still readable")
	}
	var re *RemoteError
	if err := c.TableAdd("missing", key, val); !errors.As(err, &re) || re.Code != CodeNoSuchObject {
		t.Errorf("missing table: %v", err)
	}
	if err := c.TableAdd("nat", []byte{1}, val); !errors.As(err, &re) || re.Code != CodeOpFailed {
		t.Errorf("bad key size: %v", err)
	}
}

func TestTernaryOps(t *testing.T) {
	m, a, _ := newAgentModule(t)
	c := newDirectClient(a)
	if err := c.TernaryAdd("acl", []byte{10, 0, 0, 0}, []byte{255, 0, 0, 0}, 10, []byte{1}); err != nil {
		t.Fatal(err)
	}
	tt, _ := m.App().State().Ternary("acl")
	if d, ok := tt.Lookup([]byte{10, 1, 2, 3}); !ok || d[0] != 1 {
		t.Error("pushed rule does not match")
	}
	if err := c.TernaryClear("acl"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tt.Lookup([]byte{10, 1, 2, 3}); ok {
		t.Error("clear failed")
	}
}

func TestCountersMetersRegisters(t *testing.T) {
	m, a, _ := newAgentModule(t)
	c := newDirectClient(a)
	cb, _ := m.App().State().Counters("stats")
	cb.Inc(2, 100)
	cb.Inc(2, 50)
	pkts, byt, err := c.CounterRead("stats", 2)
	if err != nil {
		t.Fatal(err)
	}
	if pkts != 2 || byt != 150 {
		t.Errorf("counter = %d/%d", pkts, byt)
	}
	if err := c.MeterSet("police", 0, 1e6, 1e4); err != nil {
		t.Fatal(err)
	}
	mb, _ := m.App().State().Meters("police")
	if mb.Conform(0, 0, 10000) && mb.Conform(0, 0, 10000) {
		t.Error("meter not actually configured")
	}
	if err := c.RegWrite("seq", 99); err != nil {
		t.Fatal(err)
	}
	v, err := c.RegRead("seq")
	if err != nil || v != 99 {
		t.Errorf("reg = %d, %v", v, err)
	}
}

func TestStatsAndDDM(t *testing.T) {
	m, a, sim := newAgentModule(t)
	c := newDirectClient(a)
	m.SetTx(core.PortOptical, func([]byte) {})
	frame := packet.MustBuild(packet.Spec{
		SrcMAC: packet.MustMAC("02:00:00:00:00:01"),
		DstMAC: packet.MustMAC("02:00:00:00:00:02"),
		SrcIP:  mustIP("10.0.0.1"), DstIP: mustIP("10.0.0.2"),
		SrcPort: 1, DstPort: 2, PadTo: 64,
	})
	m.RxEdge(frame)
	sim.Run()
	st, err := c.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rx[0] != 1 || st.Engine.In != 1 || st.Engine.Pass != 1 || !st.Running || st.AppName != "stateful" {
		t.Errorf("stats = %+v", st)
	}
	d, err := c.ReadDDM()
	if err != nil {
		t.Fatal(err)
	}
	if d.VccVolts != 3.3 || d.TxPowerDBm > 0 {
		t.Errorf("ddm = %+v", d)
	}
}

func TestSlotsAndOTAPush(t *testing.T) {
	m, a, sim := newAgentModule(t)
	c := newDirectClient(a)
	slots, err := c.Slots()
	if err != nil {
		t.Fatal(err)
	}
	if slots[1] != "stateful" {
		t.Errorf("slots = %v", slots)
	}
	// Push a new image into slot 2 and reboot into it.
	app := newStatefulApp()
	prog := app.Program()
	prog.Version = 2
	d, err := hls.Compile(prog, hls.Options{ClockHz: 156_250_000, DatapathBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := d.Bitstream.Encode()
	signed := bitstream.Sign(enc, fleetKey)
	if err := c.PushBitstream(signed, 2, true); err != nil {
		t.Fatal(err)
	}
	sim.Run() // let the reboot FSM complete
	if !m.Running() || m.ActiveSlot() != 2 {
		t.Errorf("running=%v slot=%d after OTA", m.Running(), m.ActiveSlot())
	}
	if st := m.Stats(); st.Boots != 2 {
		t.Errorf("boots = %d", st.Boots)
	}
}

func TestOTARejectsBadSignature(t *testing.T) {
	_, a, _ := newAgentModule(t)
	c := newDirectClient(a)
	app := newStatefulApp()
	d, _ := hls.Compile(app.Program(), hls.Options{ClockHz: 156_250_000, DatapathBits: 64})
	enc, _ := d.Bitstream.Encode()
	signed := bitstream.Sign(enc, []byte("attacker-key"))
	err := c.PushBitstream(signed, 2, true)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeOpFailed {
		t.Errorf("err = %v, want remote CodeOpFailed", err)
	}
}

func TestXferStateMachineErrors(t *testing.T) {
	_, a, _ := newAgentModule(t)
	c := newDirectClient(a)
	var re *RemoteError
	// Commit without begin.
	if _, err := c.do(MsgXferCommit, nil); !errors.As(err, &re) || re.Code != CodeBadState {
		t.Errorf("commit-no-begin: %v", err)
	}
	// Begin then incomplete commit.
	var w bodyWriter
	w.u8(2)
	w.u8(0)
	w.u32(1000)
	if _, err := c.do(MsgXferBegin, w.b); err != nil {
		t.Fatal(err)
	}
	if _, err := c.do(MsgXferCommit, nil); !errors.As(err, &re) || re.Code != CodeBadState {
		t.Errorf("incomplete commit: %v", err)
	}
	// Chunk out of range.
	if _, err := c.do(MsgXferBegin, w.b); err != nil {
		t.Fatal(err)
	}
	var cw bodyWriter
	cw.u32(990)
	cw.bytes(make([]byte, 100))
	if _, err := c.do(MsgXferChunk, cw.b); !errors.As(err, &re) || re.Code != CodeBadBody {
		t.Errorf("chunk overflow: %v", err)
	}
}

func TestUnknownMessageType(t *testing.T) {
	_, a, _ := newAgentModule(t)
	resp := a.Handle(Message{Type: 200, ReqID: 5}.Encode())
	msg, err := DecodeMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgError || msg.ReqID != 5 {
		t.Errorf("resp = %+v", msg)
	}
	code, _, _ := ParseError(msg.Body)
	if code != CodeUnknownType {
		t.Errorf("code = %d", code)
	}
}

func TestGarbageRequest(t *testing.T) {
	_, a, _ := newAgentModule(t)
	resp := a.Handle([]byte("not a message"))
	msg, err := DecodeMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgError {
		t.Errorf("resp type = %d", msg.Type)
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	_, a, _ := newAgentModule(t)
	srv := NewServer(a.Handle)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr)

	info, err := c.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "sfp-7" {
		t.Errorf("info = %+v", info)
	}
	// Table ops over real TCP.
	if err := c.TableAdd("nat", []byte{1, 2, 3, 4}, []byte{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	v, err := c.TableGet("nat", []byte{1, 2, 3, 4})
	if err != nil || !bytes.Equal(v, []byte{5, 6, 7, 8}) {
		t.Errorf("get over TCP = %x, %v", v, err)
	}
	// Second client on the same server.
	tr2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if _, err := NewClient(tr2).Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(typ uint8, reqID uint32, body []byte) bool {
		if len(body) > MaxBody {
			body = body[:MaxBody]
		}
		m := Message{Type: MsgType(typ), ReqID: reqID, Body: body}
		got, err := DecodeMessage(m.Encode())
		if err != nil {
			return false
		}
		return got.Type == m.Type && got.ReqID == reqID && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(6)}); err != nil {
		t.Error(err)
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	if _, err := DecodeMessage([]byte{1, 2}); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short: %v", err)
	}
	bad := Message{Type: MsgPing}.Encode()
	bad[0] = 'X'
	if _, err := DecodeMessage(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}
	bad = Message{Type: MsgPing}.Encode()
	bad[2] = 9
	if _, err := DecodeMessage(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
}

func mustIP(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestReadEEPROM(t *testing.T) {
	_, a, _ := newAgentModule(t)
	c := newDirectClient(a)
	id, raw, err := c.ReadEEPROM()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 256 {
		t.Errorf("raw page = %d bytes", len(raw))
	}
	if id.VendorName != "FLEXSFP" || !id.Is10GBaseSR || !id.DDMSupported {
		t.Errorf("identity = %+v", id)
	}
	if id.VendorSN != "FS2600000007" {
		t.Errorf("serial = %q (device 7)", id.VendorSN)
	}
}
