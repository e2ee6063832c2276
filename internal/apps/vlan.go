package apps

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// VLANConfig configures the tagging app.
type VLANConfig struct {
	// VLAN is the tag pushed on edge→optical frames (access-port
	// semantics: the matching tag is popped optical→edge).
	VLAN     uint16 `json:"vlan"`
	Priority uint8  `json:"priority,omitempty"`
	// QinQ pushes a service tag (EtherType 0x88A8) on top of whatever
	// the frame carries — the legacy-environment L2 segmentation of §3.
	QinQ bool `json:"qinq,omitempty"`
}

// VLAN counter indexes (bank "tags").
const (
	VLANPushed = iota
	VLANPopped
	VLANPassed
	vlanCounters
)

// vlanApp implements §3 "Packet Transformation": VLAN tagging and QinQ
// for L2 segmentation in legacy environments, applied at the optical
// boundary without touching switch or host.
type vlanApp struct {
	prog  *ppe.Program
	state *ppe.State
	tags  *ppe.CounterBank
	cfg   VLANConfig
}

// NewVLAN builds a tagging instance.
func NewVLAN() *vlanApp {
	a := &vlanApp{state: ppe.NewState()}
	a.tags = a.state.AddCounters("tags", vlanCounters)
	a.prog = &ppe.Program{
		Name:        "vlan",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeDot1Q},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionPush, Bytes: 4},
			{Kind: ppe.ActionPop, Bytes: 4},
			{Kind: ppe.ActionCounterBank, Count: vlanCounters},
		},
		Stages:  1,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *vlanApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *vlanApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *vlanApp) Configure(config []byte) error {
	if len(config) == 0 {
		return fmt.Errorf("vlan: config with a VLAN ID is required")
	}
	var cfg VLANConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("vlan: %w", err)
	}
	if cfg.VLAN == 0 || cfg.VLAN > 4094 {
		return fmt.Errorf("vlan: VLAN ID %d out of range", cfg.VLAN)
	}
	a.cfg = cfg
	return nil
}

func (a *vlanApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if len(ctx.Data) < 14 {
		return ppe.VerdictDrop
	}
	switch ctx.Dir {
	case ppe.DirEdgeToOptical:
		ctx.Data = a.push(ctx.Data)
		a.tags.Inc(VLANPushed, len(ctx.Data))
	case ppe.DirOpticalToEdge:
		out, popped := a.pop(ctx.Data)
		ctx.Data = out
		if popped {
			a.tags.Inc(VLANPopped, len(ctx.Data))
		} else {
			a.tags.Inc(VLANPassed, len(ctx.Data))
		}
	}
	return ppe.VerdictPass
}

// push inserts the configured tag after the MAC addresses, in place.
func (a *vlanApp) push(data []byte) []byte {
	out := packet.Splice(data, 12, 0, 4)
	tpid := uint16(packet.EtherTypeDot1Q)
	if a.cfg.QinQ {
		tpid = uint16(packet.EtherTypeQinQ)
	}
	binary.BigEndian.PutUint16(out[12:14], tpid)
	tci := uint16(a.cfg.Priority&0x7)<<13 | a.cfg.VLAN&0x0fff
	binary.BigEndian.PutUint16(out[14:16], tci)
	return out
}

// pop removes the outermost tag, in place, if it matches the configured
// VLAN.
func (a *vlanApp) pop(data []byte) ([]byte, bool) {
	if len(data) < 18 {
		return data, false
	}
	et := packet.EtherType(binary.BigEndian.Uint16(data[12:14]))
	if et != packet.EtherTypeDot1Q && et != packet.EtherTypeQinQ {
		return data, false
	}
	vid := binary.BigEndian.Uint16(data[14:16]) & 0x0fff
	if vid != a.cfg.VLAN {
		return data, false
	}
	return packet.Splice(data, 12, 4, 0), true
}
