package apps

import (
	"encoding/json"
	"fmt"
	"net/netip"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// NATTableSize is the paper's table capacity: 32,768 flows, which maps to
// exactly 160 LSRAM blocks (Table 1).
const NATTableSize = 32768

// NATConfig is the static mapping set loaded at boot; further mappings
// are added at runtime through the control plane.
type NATConfig struct {
	// Direction limits translation ("edge-to-optical" for the paper's
	// outgoing-source-NAT; default both ways with reverse translation
	// when Bidirectional).
	Direction string `json:"direction,omitempty"`
	// Mappings are internal→external 1:1 source translations.
	Mappings []NATMapping `json:"mappings,omitempty"`
}

// NATMapping is one static 1:1 translation.
type NATMapping struct {
	Internal string `json:"internal"`
	External string `json:"external"`
}

// natApp is the §5.1 case study: static one-to-one source NAT translating
// source IPs of outgoing (edge→optical) traffic at 10 Gb/s line rate. The
// declarative structure is exactly the Table 1 design: parse eth+ipv4,
// one 32→32-bit exact table of 32,768 entries, hash, rewrite, checksum
// fixup, two stages.
type natApp struct {
	prog  *ppe.Program
	state *ppe.State
	table *ppe.Table
	stats *ppe.CounterBank
	dir   string
	v     packet.View
}

// NAT counter indexes (bank "stats").
const (
	NATTranslated = iota
	NATMissPassed
	NATNonIPv4
	natCounters
)

// NewNAT builds a NAT instance.
func NewNAT() *natApp {
	a := &natApp{state: ppe.NewState()}
	spec := ppe.TableSpec{Name: "nat", Kind: ppe.TableExact, KeyBits: 32, ValueBits: 32, Size: NATTableSize}
	a.table = a.state.AddTable(spec)
	a.stats = a.state.AddCounters("stats", natCounters)
	a.prog = &ppe.Program{
		Name:        "nat",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4},
		Tables:      []ppe.TableSpec{spec},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionHash, Bits: 32},
			{Kind: ppe.ActionRewrite, Bits: 32},
			{Kind: ppe.ActionChecksum},
		},
		Stages:  2,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *natApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *natApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *natApp) Configure(config []byte) error {
	if len(config) == 0 {
		return nil
	}
	var cfg NATConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("nat: %w", err)
	}
	a.dir = cfg.Direction
	for _, m := range cfg.Mappings {
		in, err := netip.ParseAddr(m.Internal)
		if err != nil {
			return fmt.Errorf("nat: internal %q: %w", m.Internal, err)
		}
		out, err := netip.ParseAddr(m.External)
		if err != nil {
			return fmt.Errorf("nat: external %q: %w", m.External, err)
		}
		if !in.Is4() || !out.Is4() {
			return fmt.Errorf("nat: mappings must be IPv4")
		}
		i4, o4 := in.As4(), out.As4()
		if err := a.table.Add(i4[:], o4[:]); err != nil {
			return err
		}
	}
	return nil
}

func (a *natApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if !dirEnabled(a.dir, ctx.Dir) {
		return ppe.VerdictPass
	}
	if !a.v.Parse(ctx.Data) || !a.v.IsIPv4 {
		a.stats.Inc(NATNonIPv4, len(ctx.Data))
		return ppe.VerdictPass
	}
	v := &a.v
	newIP, ok := a.table.Lookup(v.SrcIPv4())
	if !ok {
		a.stats.Inc(NATMissPassed, len(ctx.Data))
		return ppe.VerdictPass
	}
	v.RewriteIPv4Addr(v.L3Off+12, newIP)
	a.stats.Inc(NATTranslated, len(ctx.Data))
	return ppe.VerdictPass
}
