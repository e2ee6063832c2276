package apps

import (
	"encoding/json"
	"fmt"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// MonitorConfig configures the passive fault detector of §3: "programmable
// SFPs can also play an active role in detecting faults such as link
// flapping, microbursts, or fiber breaks, with a 'wire-level' capillarity
// that centralized tools can hardly achieve."
type MonitorConfig struct {
	// BurstFrames within BurstWindowNs constitutes a microburst.
	BurstFrames   int    `json:"burst_frames,omitempty"`
	BurstWindowNs uint64 `json:"burst_window_ns,omitempty"`
	// GapNs of silence followed by traffic counts as a link flap.
	GapNs uint64 `json:"gap_ns,omitempty"`
}

// Monitor counter indexes (bank "events").
const (
	MonMicrobursts = iota
	MonFlaps
	MonFrames
	monCounters
)

// monDirState is per-direction detection state.
type monDirState struct {
	seen        bool
	lastArrival uint64
	burstStart  uint64
	burstCount  int
	burstFired  bool
}

type monitorApp struct {
	prog  *ppe.Program
	state *ppe.State
	ctr   *ppe.CounterBank
	cfg   MonitorConfig

	dirs [2]monDirState
}

// NewMonitor builds a fault-detection instance.
func NewMonitor() *monitorApp {
	a := &monitorApp{state: ppe.NewState()}
	a.ctr = a.state.AddCounters("events", monCounters)
	a.prog = &ppe.Program{
		Name:        "monitor",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet},
		Registers: []ppe.RegisterSpec{
			{Name: "last_arrival", Bits: 64},
			{Name: "burst_count", Bits: 32},
		},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionTimestamp},
			{Kind: ppe.ActionCounterBank, Count: monCounters},
		},
		Stages:  1,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *monitorApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *monitorApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *monitorApp) Configure(config []byte) error {
	a.cfg = MonitorConfig{
		BurstFrames:   32,
		BurstWindowNs: 10_000,        // 32 frames in 10 µs ≈ 3.2 Mpps spike
		GapNs:         1_000_000_000, // 1 s of silence = flap
	}
	if len(config) == 0 {
		return nil
	}
	var cfg MonitorConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	if cfg.BurstFrames > 0 {
		a.cfg.BurstFrames = cfg.BurstFrames
	}
	if cfg.BurstWindowNs > 0 {
		a.cfg.BurstWindowNs = cfg.BurstWindowNs
	}
	if cfg.GapNs > 0 {
		a.cfg.GapNs = cfg.GapNs
	}
	return nil
}

func (a *monitorApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	a.ctr.Inc(MonFrames, len(ctx.Data))
	t := ctx.TimestampNs
	d := &a.dirs[ctx.Dir&1]

	// Link flap: a long silence followed by traffic resuming.
	if d.seen && t-d.lastArrival >= a.cfg.GapNs {
		a.ctr.Inc(MonFlaps, 0)
		// A flap resets burst tracking.
		d.burstStart, d.burstCount, d.burstFired = t, 0, false
	}
	d.seen = true
	d.lastArrival = t

	// Microburst: too many frames inside the sliding window.
	if t-d.burstStart <= a.cfg.BurstWindowNs {
		d.burstCount++
		if d.burstCount >= a.cfg.BurstFrames && !d.burstFired {
			d.burstFired = true
			a.ctr.Inc(MonMicrobursts, 0)
		}
	} else {
		d.burstStart = t
		d.burstCount = 1
		d.burstFired = false
	}

	return ppe.VerdictPass
}
