package apps

import (
	"encoding/json"
	"fmt"
	"net/netip"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// ACL actions.
const (
	ACLPermit uint8 = 0
	ACLDeny   uint8 = 1
)

// ACL counter indexes (bank "verdicts").
const (
	ACLPermitted = iota
	ACLDenied
	ACLDefaulted
	aclCounters
)

// ACLRuleSize is the register-TCAM capacity: deliberately small (§5.3
// keeps large tables out of scope for the cheap path).
const ACLRuleSize = 64

// ACLConfig is the boot-time rule set.
type ACLConfig struct {
	// DefaultDeny drops packets matching no rule (default: permit).
	DefaultDeny bool      `json:"default_deny,omitempty"`
	Direction   string    `json:"direction,omitempty"`
	Rules       []ACLRule `json:"rules,omitempty"`
}

// ACLRule is one 5-tuple rule; empty fields wildcard.
type ACLRule struct {
	SrcPrefix string `json:"src,omitempty"` // CIDR
	DstPrefix string `json:"dst,omitempty"` // CIDR
	SrcPort   uint16 `json:"sport,omitempty"`
	DstPort   uint16 `json:"dport,omitempty"`
	Proto     uint8  `json:"proto,omitempty"`
	Deny      bool   `json:"deny"`
	Priority  int    `json:"priority"`
}

// aclApp is the per-port firewall of §3 ("Security and Policy
// Enforcement"): traffic is screened at the optical edge, before it
// reaches the NIC, the switch, or the customer premises.
type aclApp struct {
	prog        *ppe.Program
	state       *ppe.State
	rules       *ppe.TernaryTable
	verdicts    *ppe.CounterBank
	defaultDeny bool
	dir         string
	v           packet.View
	keyBuf      [13]byte
}

// NewACL builds an ACL instance.
func NewACL() *aclApp {
	a := &aclApp{state: ppe.NewState()}
	spec := ppe.TableSpec{Name: "rules", Kind: ppe.TableTernary, KeyBits: packet.FiveTupleKeyBits, ValueBits: 8, Size: ACLRuleSize}
	a.rules = a.state.AddTernary(spec)
	a.verdicts = a.state.AddCounters("verdicts", aclCounters)
	a.prog = &ppe.Program{
		Name:        "acl",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4, packet.LayerTypeTCP},
		Tables:      []ppe.TableSpec{spec},
		Actions:     []ppe.ActionSpec{{Kind: ppe.ActionCounterBank, Count: aclCounters}},
		Stages:      2,
		Handler:     ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *aclApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *aclApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *aclApp) Configure(config []byte) error {
	if len(config) == 0 {
		return nil
	}
	var cfg ACLConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("acl: %w", err)
	}
	a.defaultDeny = cfg.DefaultDeny
	a.dir = cfg.Direction
	for _, r := range cfg.Rules {
		if err := a.AddRule(r); err != nil {
			return err
		}
	}
	return nil
}

// AddRule compiles a rule into a masked entry and inserts it.
func (a *aclApp) AddRule(r ACLRule) error {
	value := make([]byte, 13)
	mask := make([]byte, 13)
	if err := putPrefix(value[0:4], mask[0:4], r.SrcPrefix); err != nil {
		return fmt.Errorf("acl src: %w", err)
	}
	if err := putPrefix(value[4:8], mask[4:8], r.DstPrefix); err != nil {
		return fmt.Errorf("acl dst: %w", err)
	}
	if r.SrcPort != 0 {
		value[8], value[9] = byte(r.SrcPort>>8), byte(r.SrcPort)
		mask[8], mask[9] = 0xff, 0xff
	}
	if r.DstPort != 0 {
		value[10], value[11] = byte(r.DstPort>>8), byte(r.DstPort)
		mask[10], mask[11] = 0xff, 0xff
	}
	if r.Proto != 0 {
		value[12] = r.Proto
		mask[12] = 0xff
	}
	action := ACLPermit
	if r.Deny {
		action = ACLDeny
	}
	return a.rules.Add(ppe.TernaryEntry{
		Value: value, Mask: mask, Priority: r.Priority, Data: []byte{action},
	})
}

func putPrefix(value, mask []byte, cidr string) error {
	if cidr == "" {
		return nil
	}
	p, err := netip.ParsePrefix(cidr)
	if err != nil {
		return err
	}
	if !p.Addr().Is4() {
		return fmt.Errorf("only IPv4 prefixes supported, got %s", cidr)
	}
	a4 := p.Addr().As4()
	copy(value, a4[:])
	bits := p.Bits()
	for i := 0; i < 4; i++ {
		switch {
		case bits >= 8:
			mask[i] = 0xff
			bits -= 8
		case bits > 0:
			mask[i] = byte(0xff << (8 - bits))
			bits = 0
		}
	}
	return nil
}

func (a *aclApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if !dirEnabled(a.dir, ctx.Dir) {
		return ppe.VerdictPass
	}
	if !a.v.Parse(ctx.Data) {
		a.verdicts.Inc(ACLDenied, len(ctx.Data))
		return ppe.VerdictDrop // unparseable at the firewall: drop
	}
	key := a.v.FiveTupleKey(a.keyBuf[:])
	data, ok := a.rules.Lookup(key)
	if !ok {
		a.verdicts.Inc(ACLDefaulted, len(ctx.Data))
		if a.defaultDeny {
			return ppe.VerdictDrop
		}
		return ppe.VerdictPass
	}
	if data[0] == ACLDeny {
		a.verdicts.Inc(ACLDenied, len(ctx.Data))
		return ppe.VerdictDrop
	}
	a.verdicts.Inc(ACLPermitted, len(ctx.Data))
	return ppe.VerdictPass
}
