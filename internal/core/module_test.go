package core

import (
	"errors"
	"net/netip"
	"runtime"
	"testing"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/flash"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

var (
	tMacA = packet.MustMAC("02:00:00:00:00:01")
	tMacB = packet.MustMAC("02:00:00:00:00:02")
	tIP1  = netip.MustParseAddr("10.1.0.1")
	tIP2  = netip.MustParseAddr("10.2.0.2")
)

// testApp is a minimal App whose handler is injectable.
type testApp struct {
	prog   *ppe.Program
	state  *ppe.State
	config []byte
}

func newTestApp(name string, h ppe.Handler) *testApp {
	a := &testApp{state: ppe.NewState()}
	a.prog = &ppe.Program{
		Name:        name,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet},
		Stages:      1,
		Handler:     h,
	}
	return a
}

func (a *testApp) Program() *ppe.Program { return a.prog }
func (a *testApp) State() *ppe.State     { return a.state }
func (a *testApp) Configure(c []byte) error {
	a.config = append([]byte(nil), c...)
	return nil
}

func passFactory(name string) Factory {
	return func() App {
		return newTestApp(name, ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict {
			return ppe.VerdictPass
		}))
	}
}

func testRegistry() *Registry {
	r := NewRegistry()
	r.Register("pass", passFactory("pass"))
	return r
}

func compileFor(t *testing.T, reg *Registry, name string, golden bool) []byte {
	t.Helper()
	app, err := reg.New(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := hls.Compile(app.Program(), hls.Options{
		ClockHz: 156_250_000, DatapathBits: 64, Golden: golden,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := d.Bitstream.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func newRunningModule(t *testing.T, sim *netsim.Simulator, shell hls.Shell) *Module {
	t.Helper()
	reg := testRegistry()
	m := NewModule(Config{Sim: sim, Name: "m0", DeviceID: 7, Shell: shell, Registry: reg, AuthKey: []byte("k")})
	if _, err := m.Install(1, compileFor(t, reg, "pass", false)); err != nil {
		t.Fatal(err)
	}
	if err := m.BootSync(1); err != nil {
		t.Fatal(err)
	}
	return m
}

func dataFrame(t *testing.T) []byte {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcMAC: tMacA, DstMAC: tMacB, SrcIP: tIP1, DstIP: tIP2,
		SrcPort: 1000, DstPort: 2000, PadTo: 64,
	})
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("a", passFactory("a"))
	if _, err := r.New("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.New("nope"); err == nil {
		t.Error("unknown app instantiated")
	}
	if n := r.Names(); len(n) != 1 || n[0] != "a" {
		t.Errorf("Names = %v", n)
	}
}

func TestBootAndForward(t *testing.T) {
	sim := netsim.New(1)
	m := newRunningModule(t, sim, hls.TwoWayCore)
	if !m.Running() || m.ActiveSlot() != 1 {
		t.Fatalf("state: running=%v slot=%d", m.Running(), m.ActiveSlot())
	}
	var optical, edge [][]byte
	m.SetTx(PortOptical, func(d []byte) { optical = append(optical, d) })
	m.SetTx(PortEdge, func(d []byte) { edge = append(edge, d) })

	m.RxEdge(dataFrame(t))
	m.RxOptical(dataFrame(t))
	sim.Run()

	if len(optical) != 1 || len(edge) != 1 {
		t.Errorf("optical=%d edge=%d, want 1/1", len(optical), len(edge))
	}
	st := m.Stats()
	if st.Rx[PortEdge] != 1 || st.Rx[PortOptical] != 1 || st.Boots != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOneWayFilterReversePathBypassesPPE(t *testing.T) {
	sim := netsim.New(1)
	m := newRunningModule(t, sim, hls.OneWayFilter)
	var edge [][]byte
	m.SetTx(PortEdge, func(d []byte) { edge = append(edge, d) })
	m.RxOptical(dataFrame(t))
	// Reverse-path delivery is immediate (merge, no PPE latency): no
	// events needed.
	if len(edge) != 1 {
		t.Fatalf("edge = %d frames", len(edge))
	}
	if in := m.Engine().Stats().In; in != 0 {
		t.Errorf("PPE saw %d frames on the reverse path", in)
	}
	sim.Run()
}

func TestVerdictRouting(t *testing.T) {
	sim := netsim.New(1)
	reg := NewRegistry()
	var mode ppe.Verdict
	reg.Register("multi", func() App {
		return newTestApp("multi", ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict {
			ctx.RedirectPort = int(PortOptical)
			return mode
		}))
	})
	m := NewModule(Config{Sim: sim, Shell: hls.TwoWayCore, Registry: reg, AuthKey: []byte("k")})
	app, _ := reg.New("multi")
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
	var edge, optical int
	m.SetTx(PortEdge, func(d []byte) { edge++ })
	m.SetTx(PortOptical, func(d []byte) { optical++ })

	mode = ppe.VerdictTx
	m.RxEdge(dataFrame(t))
	sim.Run()
	if edge != 1 || optical != 0 {
		t.Errorf("Tx verdict: edge=%d optical=%d", edge, optical)
	}

	mode = ppe.VerdictRedirect
	m.RxEdge(dataFrame(t))
	sim.Run()
	if optical != 1 {
		t.Errorf("Redirect verdict: optical=%d", optical)
	}

	mode = ppe.VerdictToCPU
	m.RxEdge(dataFrame(t))
	sim.Run()
	if n := m.Stats().PuntToCPU; n != 1 {
		t.Errorf("ToCPU verdict: punted=%d", n)
	}

	mode = ppe.VerdictDrop
	m.RxEdge(dataFrame(t))
	sim.Run()
	if edge != 1 || optical != 1 {
		t.Errorf("Drop verdict leaked a frame: edge=%d optical=%d", edge, optical)
	}
}

func TestControlFrameDemux(t *testing.T) {
	sim := netsim.New(1)
	m := newRunningModule(t, sim, hls.TwoWayCore)
	var gotPayload []byte
	var gotFrom PortID
	m.SetControlHandler(func(p []byte, from PortID) [][]byte {
		gotPayload = append([]byte(nil), p...)
		gotFrom = from
		return [][]byte{[]byte("pong")}
	})
	var edgeOut [][]byte
	m.SetTx(PortEdge, func(d []byte) { edgeOut = append(edgeOut, d) })

	// Build a control frame.
	buf := packet.NewSerializeBuffer()
	pl := packet.Payload([]byte("ping"))
	if err := packet.SerializeLayers(buf, packet.SerializeOptions{},
		&packet.Ethernet{SrcMAC: tMacA, DstMAC: m.MAC(), EtherType: packet.EtherTypeFlexControl},
		&pl); err != nil {
		t.Fatal(err)
	}
	m.RxEdge(append([]byte(nil), buf.Bytes()...))
	sim.Run()

	if string(gotPayload) != "ping" || gotFrom != PortEdge {
		t.Errorf("handler got %q from %v", gotPayload, gotFrom)
	}
	if len(edgeOut) != 1 {
		t.Fatalf("response frames = %d", len(edgeOut))
	}
	var eth packet.Ethernet
	if err := eth.DecodeFromBytes(edgeOut[0]); err != nil {
		t.Fatal(err)
	}
	if eth.EtherType != packet.EtherTypeFlexControl || eth.DstMAC != tMacA || eth.SrcMAC != m.MAC() {
		t.Errorf("response eth = %+v", eth)
	}
	if string(eth.LayerPayload()) != "pong" {
		t.Errorf("response payload = %q", eth.LayerPayload())
	}
	if m.Stats().ControlFrames != 1 {
		t.Errorf("ControlFrames = %d", m.Stats().ControlFrames)
	}
	// Control frames never hit the PPE.
	if m.Engine().Stats().In != 0 {
		t.Error("control frame reached the PPE")
	}
}

func TestControlReachableWhileRebooting(t *testing.T) {
	sim := netsim.New(1)
	m := newRunningModule(t, sim, hls.TwoWayCore)
	handled := 0
	m.SetControlHandler(func(p []byte, from PortID) [][]byte { handled++; return nil })
	m.Reboot(1)
	// While rebooting: data drops, control works.
	buf := packet.NewSerializeBuffer()
	pl := packet.Payload([]byte("x"))
	_ = packet.SerializeLayers(buf, packet.SerializeOptions{},
		&packet.Ethernet{SrcMAC: tMacA, DstMAC: m.MAC(), EtherType: packet.EtherTypeFlexControl}, &pl)
	m.RxEdge(append([]byte(nil), buf.Bytes()...))
	m.RxEdge(dataFrame(t))
	if handled != 1 {
		t.Error("control frame not handled during reboot")
	}
	if m.Stats().RebootDrops != 1 {
		t.Errorf("RebootDrops = %d", m.Stats().RebootDrops)
	}
	sim.Run()
	if !m.Running() {
		t.Error("module did not come back after reboot")
	}
}

func TestRebootTakesConfigTime(t *testing.T) {
	sim := netsim.New(1)
	m := newRunningModule(t, sim, hls.TwoWayCore)
	m.Reboot(1)
	sim.RunUntil(netsim.Time(FPGAConfigTime) - 1)
	if m.Running() {
		t.Error("module running before FPGA config time elapsed")
	}
	sim.Run()
	if !m.Running() {
		t.Error("module not running after reboot completed")
	}
	if m.Stats().Boots != 2 {
		t.Errorf("Boots = %d", m.Stats().Boots)
	}
}

func TestInstallSignedAuth(t *testing.T) {
	sim := netsim.New(1)
	reg := testRegistry()
	m := NewModule(Config{Sim: sim, Shell: hls.TwoWayCore, Registry: reg, AuthKey: []byte("fleet-key")})
	enc := compileFor(t, reg, "pass", false)

	if _, err := m.InstallSigned(1, bitstream.Sign(enc, []byte("wrong"))); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong key: %v", err)
	}
	if m.Stats().AuthFailures != 1 {
		t.Errorf("AuthFailures = %d", m.Stats().AuthFailures)
	}
	if _, err := m.InstallSigned(1, bitstream.Sign(enc, []byte("fleet-key"))); err != nil {
		t.Fatal(err)
	}
	if err := m.BootSync(1); err != nil {
		t.Fatal(err)
	}
	if !m.Running() {
		t.Error("not running after signed install + boot")
	}
}

func TestInstallSignedWrongDevice(t *testing.T) {
	sim := netsim.New(1)
	reg := testRegistry()
	m := NewModule(Config{Sim: sim, Shell: hls.TwoWayCore, Registry: reg,
		AuthKey: []byte("k"), DeviceName: "MPF300T"})
	enc := compileFor(t, reg, "pass", false) // targets MPF200T
	if _, err := m.InstallSigned(1, bitstream.Sign(enc, []byte("k"))); !errors.Is(err, ErrWrongDevice) {
		t.Errorf("err = %v, want ErrWrongDevice", err)
	}
}

func TestGoldenFallbackOnBadSlot(t *testing.T) {
	sim := netsim.New(1)
	reg := testRegistry()
	m := NewModule(Config{Sim: sim, Shell: hls.TwoWayCore, Registry: reg, AuthKey: []byte("k")})
	app, _ := reg.New("pass")
	d, _ := hls.Compile(app.Program(), hls.Options{ClockHz: 156_250_000, DatapathBits: 64, Golden: true})
	golden, _ := d.Bitstream.Encode()
	if _, err := m.Install(0, golden); err != nil {
		t.Fatal(err)
	}
	if err := m.BootSync(0); err != nil {
		t.Fatal(err)
	}
	// Reboot into an empty slot: FSM must fall back to slot 0.
	m.Reboot(2)
	sim.Run()
	if !m.Running() || m.ActiveSlot() != 0 {
		t.Errorf("running=%v slot=%d, want golden fallback to slot 0", m.Running(), m.ActiveSlot())
	}
}

func TestBootUnknownApp(t *testing.T) {
	sim := netsim.New(1)
	reg := testRegistry()
	m := NewModule(Config{Sim: sim, Shell: hls.TwoWayCore, Registry: NewRegistry(), AuthKey: []byte("k")})
	if _, err := m.Install(1, compileFor(t, reg, "pass", false)); err != nil {
		t.Fatal(err)
	}
	if err := m.BootSync(1); err == nil {
		t.Error("booted an app missing from the registry")
	}
}

func TestPowerModelCalibration(t *testing.T) {
	sim := netsim.New(1)
	m := newRunningModule(t, sim, hls.TwoWayCore)
	// Idle: optics + static + Mi-V = 0.92 W.
	idle := m.PowerW()
	if idle < 0.9 || idle > 0.95 {
		t.Errorf("idle power = %.3f W", idle)
	}
	// PeakPowerW at the baseline operating point = 1.52 W, matching the
	// paper's measured delta (5.320 − 3.800).
	peak := PeakPowerW(156_250_000, 64, hls.TwoWayCore)
	if peak < 1.515 || peak > 1.525 {
		t.Errorf("peak power = %.3f W, want 1.52", peak)
	}
	// Double-clock Two-Way-Core stays inside the 3 W envelope.
	if !WithinThermalEnvelope(312_500_000, 64, hls.TwoWayCore) {
		t.Error("312.5 MHz design should fit the envelope")
	}
	// A 512-bit, 400 MHz design does not fit an SFP+ envelope.
	if WithinThermalEnvelope(400_000_000, 512, hls.TwoWayCore) {
		t.Error("100G-class design reported inside SFP+ envelope")
	}
}

func TestStandardSFPPassthrough(t *testing.T) {
	sim := netsim.New(1)
	s := NewStandardSFP(sim)
	var optical, edge int
	var deliveredAt netsim.Time
	s.SetTx(PortOptical, func(d []byte) { optical++; deliveredAt = sim.Now() })
	s.SetTx(PortEdge, func(d []byte) { edge++ })
	s.RxEdge(make([]byte, 64))
	s.RxOptical(make([]byte, 64))
	sim.Run()
	if optical != 1 || edge != 1 {
		t.Errorf("optical=%d edge=%d", optical, edge)
	}
	if deliveredAt != netsim.Time(s.RetimerDelay) {
		t.Errorf("delivered at %v, want retimer delay %v", deliveredAt, s.RetimerDelay)
	}
	if s.PowerW() != StandardSFPPowerW {
		t.Errorf("power = %v", s.PowerW())
	}
}

func TestModuleDDMTracksLaser(t *testing.T) {
	sim := netsim.New(1)
	m := newRunningModule(t, sim, hls.TwoWayCore)
	d := m.DDM()
	if d.TxPowerDBm > -1.9 || d.TxPowerDBm < -2.1 {
		t.Errorf("healthy TxPower = %v", d.TxPowerDBm)
	}
	m.Laser.Degradation = 0.6
	d = m.DDM()
	if d.TxPowerDBm > -5.5 {
		t.Errorf("degraded TxPower = %v, want below -5.5", d.TxPowerDBm)
	}
	if d.TxBiasMA <= 6.0 {
		t.Errorf("degraded bias = %v, want above nominal", d.TxBiasMA)
	}
}

func TestControlFrameUnderVLANTag(t *testing.T) {
	sim := netsim.New(1)
	m := newRunningModule(t, sim, hls.TwoWayCore)
	got := 0
	m.SetControlHandler(func(p []byte, from PortID) [][]byte { got++; return nil })
	buf := packet.NewSerializeBuffer()
	pl := packet.Payload([]byte("cfg"))
	_ = packet.SerializeLayers(buf, packet.SerializeOptions{},
		&packet.Ethernet{SrcMAC: tMacA, DstMAC: m.MAC(), EtherType: packet.EtherTypeDot1Q},
		&packet.Dot1Q{VLAN: 5, EtherType: packet.EtherTypeFlexControl},
		&pl)
	m.RxEdge(append([]byte(nil), buf.Bytes()...))
	if got != 1 {
		t.Error("VLAN-tagged control frame not demuxed")
	}
	sim.Run()
}

func TestCorruptedSlotFallsBackToGolden(t *testing.T) {
	sim := netsim.New(9)
	reg := testRegistry()
	m := NewModule(Config{Sim: sim, Shell: hls.TwoWayCore, Registry: reg, AuthKey: []byte("k")})
	// Golden image in slot 0, working app in slot 1.
	app, _ := reg.New("pass")
	d, _ := hls.Compile(app.Program(), hls.Options{ClockHz: 156_250_000, DatapathBits: 64, Golden: true})
	golden, _ := d.Bitstream.Encode()
	if _, err := m.Install(0, golden); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Install(1, compileFor(t, reg, "pass", false)); err != nil {
		t.Fatal(err)
	}
	if err := m.BootSync(1); err != nil {
		t.Fatal(err)
	}
	// Power glitch corrupts the active slot mid-life.
	addr, _ := flash.SlotAddr(1)
	if err := m.Flash.CorruptRange(addr+40, 16, func() byte {
		return byte(sim.Rand().Intn(255))
	}); err != nil {
		t.Fatal(err)
	}
	// The next reboot detects the bad CRC and falls back to the golden
	// image (§4.2's FSM made safe).
	m.Reboot(1)
	sim.Run()
	if !m.Running() {
		t.Fatal("module dead after corrupted-slot reboot")
	}
	if m.ActiveSlot() != 0 {
		t.Errorf("active slot = %d, want golden fallback to 0", m.ActiveSlot())
	}
}

// TestModuleReleasesOnEveryExit drives pool buffers through each of the
// module's eight exits that end a frame's life — consumed control frame,
// data on the control port, reboot drop, full input queue, verdict drop,
// out-of-range redirect, punt, and a send with no sink — and pins 0
// allocs per frame: a buffer any exit failed to release would be replaced
// by a fresh 2 KiB one from the pool.
func TestModuleReleasesOnEveryExit(t *testing.T) {
	sim := netsim.New(1)
	reg := NewRegistry()
	verdict, redirect := ppe.VerdictPass, 0
	reg.Register("exits", func() App {
		return newTestApp("exits", ppe.HandlerFunc(func(ctx *ppe.Ctx) ppe.Verdict {
			ctx.RedirectPort = redirect
			return verdict
		}))
	})
	m := NewModule(Config{Sim: sim, Shell: hls.TwoWayCore, Registry: reg, AuthKey: []byte("k"), QueueLimit: 1})
	if _, err := m.Install(1, compileFor(t, reg, "exits", false)); err != nil {
		t.Fatal(err)
	}
	if err := m.BootSync(1); err != nil {
		t.Fatal(err)
	}
	m.SetControlHandler(func([]byte, PortID) [][]byte { return nil })
	m.SetTx(PortEdge, packet.PutBuffer)
	m.SetTx(PortControl, packet.PutBuffer) // a port TwoWayCore lacks

	data := dataFrame(t)
	buf := packet.NewSerializeBuffer()
	pl := packet.Payload([]byte("cfg"))
	if err := packet.SerializeLayers(buf, packet.SerializeOptions{},
		&packet.Ethernet{SrcMAC: tMacA, DstMAC: m.MAC(), EtherType: packet.EtherTypeFlexControl}, &pl); err != nil {
		t.Fatal(err)
	}
	control := append([]byte(nil), buf.Bytes()...)
	pooled := func(f []byte) []byte {
		b := packet.GetBuffer(len(f))
		copy(b, f)
		return b
	}
	verdictExit := func(v ppe.Verdict, port PortID) func() {
		return func() {
			verdict, redirect = v, int(port)
			m.RxEdge(pooled(data))
			sim.Run()
		}
	}
	exits := []struct {
		name string
		run  func()
		st   func() uint64 // the counter that proves the exit was taken
	}{
		{"consumed control frame", func() { m.RxEdge(pooled(control)) },
			func() uint64 { return m.Stats().ControlFrames }},
		{"data on the control port", func() { m.RxControl(pooled(data)) },
			func() uint64 { return m.Stats().Rx[PortControl] }},
		{"queue drop", func() {
			verdict = ppe.VerdictTx // the admitted frames go out the edge sink
			for i := 0; i < 3; i++ {
				m.RxEdge(pooled(data))
			}
			sim.Run()
		}, func() uint64 { return m.Engine().Stats().QueueDrop }},
		{"verdict drop", verdictExit(ppe.VerdictDrop, 0), func() uint64 { return m.Engine().Stats().Drop }},
		{"out-of-range redirect", verdictExit(ppe.VerdictRedirect, numPorts), func() uint64 { return m.Engine().Stats().Redirect }},
		{"punt", verdictExit(ppe.VerdictToCPU, 0), func() uint64 { return m.Stats().PuntToCPU }},
		{"no sink", verdictExit(ppe.VerdictPass, 0), func() uint64 { return m.Engine().Stats().Pass }},
		{"control port the shell lacks", verdictExit(ppe.VerdictRedirect, PortControl), func() uint64 { return m.Engine().Stats().Redirect }},
	}
	for _, e := range exits {
		before := e.st()
		emptyPool()
		if n := testing.AllocsPerRun(100, e.run); n != 0 {
			t.Errorf("%s: %.1f allocs/frame, want 0", e.name, n)
		}
		if e.st() == before {
			t.Errorf("%s: exit not taken", e.name)
		}
	}

	m.Reboot(1)
	before := m.Stats().RebootDrops
	emptyPool()
	if n := testing.AllocsPerRun(100, func() { m.RxEdge(pooled(data)) }); n != 0 {
		t.Errorf("reboot drop: %.1f allocs/frame, want 0", n)
	}
	if m.Stats().RebootDrops == before {
		t.Error("reboot drop: exit not taken")
	}
	sim.Run()
}

// emptyPool drops every idle pool buffer (two GCs clear a sync.Pool), so
// buffers an earlier case released cannot stand in for ones a leaking
// exit never returned.
func emptyPool() {
	runtime.GC()
	runtime.GC()
}
