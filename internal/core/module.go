package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/flash"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/opt"
	"flexsfp/internal/packet"
	"flexsfp/internal/phy"
	"flexsfp/internal/ppe"
	"flexsfp/internal/telemetry"
)

// PortID identifies a module interface.
type PortID int

// Module ports.
const (
	PortEdge    PortID = 0 // electrical/host side
	PortOptical PortID = 1 // fiber side
	PortControl PortID = 2 // dedicated control-plane port (ActiveCore only)
	numPorts           = 3
)

func (p PortID) String() string {
	switch p {
	case PortEdge:
		return "edge"
	case PortOptical:
		return "optical"
	case PortControl:
		return "control"
	default:
		return fmt.Sprintf("port(%d)", int(p))
	}
}

// moduleState is the boot FSM state.
type moduleState int

const (
	stateEmpty moduleState = iota
	stateRunning
	stateRebooting
)

// FPGAConfigTime is the PolarFire configuration time from SPI flash.
const FPGAConfigTime = 30 * netsim.Millisecond

// Module errors.
var (
	ErrWrongDevice  = errors.New("core: bitstream targets a different device")
	ErrNoRegistry   = errors.New("core: module has no application registry")
	ErrBadSignature = errors.New("core: bitstream signature rejected")
)

// Config describes a FlexSFP module.
type Config struct {
	Sim      *netsim.Simulator
	Name     string
	DeviceID uint32 // used in telemetry hop records and the module MAC
	Shell    hls.Shell
	Registry *Registry
	// AuthKey authenticates over-the-network reconfiguration (§4.2).
	AuthKey []byte
	// QueueLimit bounds the PPE input queue (frames); default 64.
	QueueLimit int
	// DeviceName is the FPGA part; bitstreams for other parts are
	// refused. Default "MPF200T".
	DeviceName string
	// HealthCheckDelay is how long after a reconfigure the watchdog
	// waits before probing the new design; default 1 ms. The watchdog
	// only runs when a health probe is installed (SetHealthProbe).
	HealthCheckDelay netsim.Duration
}

// Stats counts module-level events (engine-level counters live in
// ppe.EngineStats).
type Stats struct {
	Rx            [numPorts]uint64
	Tx            [numPorts]uint64
	ControlFrames uint64 // in-band control frames demuxed to the mgmt core
	RebootDrops   uint64 // data frames dropped while reconfiguring
	PuntToCPU     uint64 // frames the PPE sent to the control plane
	Boots         uint64
	AuthFailures  uint64

	BootFailures    uint64 // reboots whose target slot failed validation/load
	GoldenFallbacks uint64 // recoveries that ended on the golden image
	WatchdogTrips   uint64 // post-reconfigure health probes that failed
}

// Module is a FlexSFP: two (or three) network interfaces around a
// programmable packet processing engine, a management core, and SPI flash
// holding bootable designs.
type Module struct {
	cfg Config
	sim *netsim.Simulator

	Flash *flash.Device
	Laser *phy.Laser

	engine     *ppe.Engine
	app        App
	bs         *bitstream.Bitstream
	state      moduleState
	activeSlot int

	tx [numPorts]func([]byte)

	// controlHandler receives in-band control payloads; each returned
	// slice is sent back as a control frame to the originating port.
	controlHandler func(payload []byte, from PortID) [][]byte
	// healthProbe, when installed, is consulted by the watchdog after a
	// reconfigure; returning false marks the new design wedged.
	healthProbe func(slot int) bool

	// tel and tracer, when attached (AttachTelemetry), instrument the
	// datapath; the engine re-acquires tel across reboots in bootNow.
	tel    *ppe.Telemetry
	tracer *telemetry.Tracer

	stats Stats
	mac   packet.MAC
}

// NewModule builds a powered-on module with empty flash and no design
// loaded. Wire its transmit callbacks, install a design, then Boot.
func NewModule(cfg Config) *Module {
	if cfg.Sim == nil {
		panic("core: Config.Sim is required")
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 64
	}
	if cfg.DeviceName == "" {
		cfg.DeviceName = "MPF200T"
	}
	m := &Module{
		cfg:   cfg,
		sim:   cfg.Sim,
		Flash: flash.New(),
		Laser: phy.NewLaser(),
	}
	m.mac = packet.MAC{0x02, 0xf5, 0xf0}
	binary.BigEndian.PutUint32(m.mac[2:], cfg.DeviceID) // low 4 bytes hold the ID
	m.mac[0], m.mac[1] = 0x02, 0xf5                     // keep the locally-administered OUI
	return m
}

// Name returns the module's configured name.
func (m *Module) Name() string { return m.cfg.Name }

// DeviceID returns the module's fleet-unique identifier.
func (m *Module) DeviceID() uint32 { return m.cfg.DeviceID }

// MAC returns the module's management MAC address.
func (m *Module) MAC() packet.MAC { return m.mac }

// Stats returns a snapshot of module counters.
func (m *Module) Stats() Stats { return m.stats }

// Engine returns the PPE (nil before first boot).
func (m *Module) Engine() *ppe.Engine { return m.engine }

// App returns the running application (nil before first boot).
func (m *Module) App() App { return m.app }

// ActiveSlot returns the flash slot of the running design.
func (m *Module) ActiveSlot() int { return m.activeSlot }

// Running reports whether a design is loaded and processing traffic.
func (m *Module) Running() bool { return m.state == stateRunning }

// SetTx wires the transmit callback of a port. The sink owns every frame
// it is handed: it releases it with packet.PutBuffer, passes it on, or
// keeps it. A port without a sink drops (and releases) what it would send.
func (m *Module) SetTx(p PortID, tx func([]byte)) { m.tx[p] = tx }

// SetControlHandler installs the management-core message handler. The
// payload is valid only during the call: the control frame carrying it
// is released when the handler returns.
func (m *Module) SetControlHandler(h func(payload []byte, from PortID) [][]byte) {
	m.controlHandler = h
}

// SetHealthProbe installs a post-reconfigure health check. After every
// Reboot that boots successfully, the watchdog waits HealthCheckDelay and
// calls probe(slot); a false return counts a WatchdogTrip and falls the
// module back to the golden image. A nil probe (the default) disables the
// watchdog entirely — no extra simulator events are scheduled.
func (m *Module) SetHealthProbe(probe func(slot int) bool) {
	m.healthProbe = probe
}

// Install stores an (unsigned, local/JTAG path) encoded bitstream into a
// flash slot and returns the flash programming time.
func (m *Module) Install(slot int, encoded []byte) (netsim.Duration, error) {
	return m.Flash.StoreBitstream(slot, encoded)
}

// InstallSigned verifies an HMAC-signed bitstream against the module's
// auth key, checks the target device, and stores it. This is the §4.2
// over-the-network reprogramming path.
func (m *Module) InstallSigned(slot int, signed []byte) (netsim.Duration, error) {
	body, err := bitstream.Verify(signed, m.cfg.AuthKey)
	if err != nil {
		m.stats.AuthFailures++
		return 0, fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	bs, err := bitstream.Decode(body)
	if err != nil {
		return 0, err
	}
	if bs.Device != m.cfg.DeviceName {
		return 0, fmt.Errorf("%w: bitstream for %q, module has %q",
			ErrWrongDevice, bs.Device, m.cfg.DeviceName)
	}
	// Anti-rollback: refuse images older than the running version of the
	// same application (a re-push of the running version is idempotent).
	if m.state == stateRunning && m.bs != nil && m.bs.AppName == bs.AppName {
		if err := bs.VerifyFreshness(m.bs.AppVersion); err != nil {
			return 0, err
		}
	}
	return m.Flash.StoreBitstream(slot, body)
}

// BootSync loads the design in slot immediately (factory provisioning /
// JTAG path; no simulated delay).
func (m *Module) BootSync(slot int) error { return m.bootNow(slot) }

// Reboot schedules a reboot into slot: the datapath goes down for the
// flash read plus FPGA configuration time, then the new design starts.
// Frames arriving meanwhile are dropped (counted in RebootDrops).
func (m *Module) Reboot(slot int) {
	prev := -1
	if m.state == stateRunning {
		prev = m.activeSlot
	}
	m.state = stateRebooting
	_, readTime, _ := m.Flash.LoadBitstream(slot)
	m.sim.ScheduleDetached(readTime+FPGAConfigTime, func() {
		if err := m.bootNow(slot); err != nil {
			// Failed boot: fall back to the previously running design,
			// then to the golden image (§4.2's reboot FSM made safe).
			m.stats.BootFailures++
			m.fallbackBoot(slot, prev)
			return
		}
		m.armWatchdog(slot)
	})
}

// fallbackBoot recovers after the design in badSlot failed: first the
// previously running slot (if any and distinct), then the slot holding the
// golden image, then slot 0 as a last resort. Sets stateEmpty if nothing
// boots.
func (m *Module) fallbackBoot(badSlot, prevSlot int) {
	if prevSlot >= 0 && prevSlot != badSlot && m.bootNow(prevSlot) == nil {
		m.noteFallback()
		return
	}
	if g := m.goldenSlot(); g >= 0 && g != badSlot && g != prevSlot && m.bootNow(g) == nil {
		m.noteFallback()
		return
	}
	if badSlot != 0 && prevSlot != 0 && m.bootNow(0) == nil {
		m.noteFallback()
		return
	}
	m.state = stateEmpty
}

// noteFallback counts a successful fallback boot that landed on the
// golden image.
func (m *Module) noteFallback() {
	if m.bs != nil && m.bs.Golden() {
		m.stats.GoldenFallbacks++
	}
}

// goldenSlot scans flash for the slot holding the factory golden image,
// or -1 if none is stored.
func (m *Module) goldenSlot() int {
	for slot := 0; slot < flash.NumSlots; slot++ {
		if bs, _, err := m.Flash.LoadBitstream(slot); err == nil && bs.Golden() {
			return slot
		}
	}
	return -1
}

// armWatchdog schedules the one-shot post-reconfigure health check. It is
// a no-op unless a health probe is installed, so the default simulator
// event stream is unchanged.
func (m *Module) armWatchdog(slot int) {
	if m.healthProbe == nil {
		return
	}
	delay := m.cfg.HealthCheckDelay
	if delay <= 0 {
		delay = netsim.Millisecond
	}
	m.sim.ScheduleDetached(delay, func() {
		if m.state != stateRunning || m.activeSlot != slot {
			return // superseded by another reboot
		}
		if m.healthProbe(slot) {
			return
		}
		// Wedged post-reconfigure PPE: the datapath looks up but passes
		// no traffic. Fall back to the golden image.
		m.stats.WatchdogTrips++
		m.state = stateRebooting
		m.fallbackBoot(slot, -1)
	})
}

func (m *Module) bootNow(slot int) error {
	if m.cfg.Registry == nil {
		return ErrNoRegistry
	}
	bs, _, err := m.Flash.LoadBitstream(slot)
	if err != nil {
		return err
	}
	if bs.Device != m.cfg.DeviceName {
		return fmt.Errorf("%w: bitstream for %q, module has %q",
			ErrWrongDevice, bs.Device, m.cfg.DeviceName)
	}
	manifest, err := hls.ParseManifest(bs.Payload)
	if err != nil {
		return err
	}
	app, err := m.cfg.Registry.New(bs.AppName)
	if err != nil {
		return err
	}
	if err := app.Configure(manifest.Config); err != nil {
		return fmt.Errorf("core: configuring %q: %w", bs.AppName, err)
	}
	prog := app.Program()
	if manifest.Optimized {
		// The bitstream was compiled from the optimized structure; apply
		// the same (idempotent) passes to the freshly instantiated app so
		// the structural cross-check below compares like with like.
		prog, _ = opt.Optimize(prog, opt.Options{})
	}
	if prog.Stages != manifest.Stages || len(prog.Tables) != len(manifest.Tables) {
		return fmt.Errorf("core: manifest/program structure mismatch for %q", bs.AppName)
	}
	engine := ppe.NewEngine(m.sim, int64(bs.ClockKHz)*1000, int(bs.DatapathBits), m.verdict)
	engine.QueueLimit = m.cfg.QueueLimit
	if err := engine.SetProgram(prog); err != nil {
		return err
	}
	if m.tel != nil {
		engine.SetTelemetry(m.tel)
	}
	m.engine = engine
	m.app = app
	m.bs = bs
	m.activeSlot = slot
	m.state = stateRunning
	m.stats.Boots++
	return nil
}

// RxEdge receives a frame on the electrical interface.
func (m *Module) RxEdge(data []byte) { m.rx(PortEdge, data) }

// RxOptical receives a frame on the optical interface.
func (m *Module) RxOptical(data []byte) { m.rx(PortOptical, data) }

// RxControl receives a frame on the dedicated control port (ActiveCore).
func (m *Module) RxControl(data []byte) { m.rx(PortControl, data) }

func (m *Module) rx(from PortID, data []byte) {
	m.stats.Rx[from]++
	if tr := m.tracer; tr != nil {
		tr.Hop(tr.Current(), telemetry.StageRx, uint64(m.sim.Now()), len(data), uint8(from))
	}

	// The arbiter demuxes in-band control frames ahead of the PPE in
	// every state except a dead module: configuration must stay reachable
	// (§4.1 "allowing remote access to the control logic without
	// disrupting the dataplane").
	if payload, ok := controlPayload(data); ok {
		m.handleControl(from, data, payload)
		packet.PutBuffer(data)
		return
	}

	if from == PortControl {
		// Data on the control port is not forwarded.
		packet.PutBuffer(data)
		return
	}

	if m.state != stateRunning {
		m.stats.RebootDrops++
		packet.PutBuffer(data)
		return
	}

	dir := ppe.DirEdgeToOptical
	if from == PortOptical {
		dir = ppe.DirOpticalToEdge
	}

	// One-Way-Filter: the PPE sits on the edge→optical path only; the
	// reverse direction is a pure merge toward the edge.
	if m.cfg.Shell == hls.OneWayFilter && dir == ppe.DirOpticalToEdge {
		m.send(PortEdge, data)
		return
	}

	if !m.engine.Submit(data, dir) {
		packet.PutBuffer(data)
	}
}

func (m *Module) verdict(v ppe.Verdict, ctx *ppe.Ctx) {
	if tr := m.tracer; tr != nil {
		// The sends below are the synchronous continuation of this frame;
		// the ambient register carries its trace ID onto the egress link.
		tr.SetCurrent(ctx.TraceID)
		defer tr.SetCurrent(0)
	}
	ingress, egress := PortEdge, PortOptical
	if ctx.Dir == ppe.DirOpticalToEdge {
		ingress, egress = PortOptical, PortEdge
	}
	switch v {
	case ppe.VerdictPass:
		m.send(egress, ctx.Data)
	case ppe.VerdictTx:
		m.send(ingress, ctx.Data)
	case ppe.VerdictRedirect:
		p := PortID(ctx.RedirectPort)
		if p >= 0 && p < numPorts {
			m.send(p, ctx.Data)
		} else {
			packet.PutBuffer(ctx.Data)
		}
	case ppe.VerdictToCPU:
		m.stats.PuntToCPU++
		packet.PutBuffer(ctx.Data)
	default:
		// VerdictDrop: the engine already counted it.
		packet.PutBuffer(ctx.Data)
	}
}

// send hands data to port p's sink, which then owns it; a port with no
// sink, or a control port the shell lacks, drops and releases it.
func (m *Module) send(p PortID, data []byte) {
	if (p == PortControl && m.cfg.Shell != hls.ActiveCore) || m.tx[p] == nil {
		packet.PutBuffer(data)
		return
	}
	m.stats.Tx[p]++
	if tr := m.tracer; tr != nil {
		tr.Hop(tr.Current(), telemetry.StageTx, uint64(m.sim.Now()), len(data), uint8(p))
	}
	m.tx[p](data)
}

// controlPayload returns the payload of an in-band control frame: one
// with the FlexControl EtherType, behind at most one VLAN tag. It reads
// fixed offsets only, since it runs on every received frame.
func controlPayload(data []byte) ([]byte, bool) {
	if len(data) < 14 {
		return nil, false
	}
	et := packet.EtherType(binary.BigEndian.Uint16(data[12:14]))
	off := 14
	if et == packet.EtherTypeDot1Q || et == packet.EtherTypeQinQ {
		if len(data) < 18 {
			return nil, false
		}
		et = packet.EtherType(binary.BigEndian.Uint16(data[16:18]))
		off = 18
	}
	if et != packet.EtherTypeFlexControl {
		return nil, false
	}
	return data[off:], true
}

// handleControl answers a control frame toward its sender.
func (m *Module) handleControl(from PortID, data, payload []byte) {
	m.stats.ControlFrames++
	if m.controlHandler == nil {
		return
	}
	src := packet.MAC(data[6:12])
	for _, resp := range m.controlHandler(payload, from) {
		m.send(from, packet.BuildEthernet(src, m.mac, packet.EtherTypeFlexControl, resp))
	}
}

// DDM returns a diagnostics snapshot reflecting the laser state and the
// module's activity (temperature rises with load).
func (m *Module) DDM() phy.DDM {
	util := 0.0
	if m.engine != nil {
		util = m.engine.Utilization()
	}
	return phy.DDM{
		TemperatureC: 40 + 15*util,
		VccVolts:     3.3,
		TxBiasMA:     m.Laser.EffectiveBiasMilliAmps(),
		TxPowerDBm:   m.Laser.OutputPowerDBm(),
		RxPowerDBm:   -4.0,
	}
}

// EEPROM returns the module's SFF-8472 A0h identification page: the
// FlexSFP presents as a standards-compliant 10GBASE-SR part (the §2.1
// drop-in property) with its identity in the vendor fields.
func (m *Module) EEPROM() []byte {
	return phy.EncodeEEPROM(phy.Identity{
		VendorName:   "FLEXSFP",
		VendorPN:     "FSP-10G-SR-P",
		VendorRev:    "1A",
		VendorSN:     fmt.Sprintf("FS26%08d", m.cfg.DeviceID),
		DateCode:     "260706",
		Is10GBaseSR:  true,
		DDMSupported: true,
	})
}
