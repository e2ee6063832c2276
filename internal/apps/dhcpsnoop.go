package apps

import (
	"encoding/json"
	"fmt"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// DHCPSnoopBindings is the snooped lease-table capacity.
const DHCPSnoopBindings = 8192

// DHCPSnoopConfig configures DHCP snooping: server messages are only
// accepted from the trusted (optical/uplink) side, and each ACK observed
// there populates an IP→MAC lease binding table that downstream apps
// (notably the ARP-spoof guard) can treat as authoritative.
type DHCPSnoopConfig struct {
	// TrustedDirection is the side DHCP servers live on; frames carrying
	// server messages from the other side are rogue and dropped.
	// Default "optical-to-edge".
	TrustedDirection string `json:"trusted_direction,omitempty"`
	// DropUntrustedRelease drops RELEASE/DECLINE from the edge whose
	// client MAC does not match the snooped binding for the released IP
	// (a common lease-starvation attack).
	DropUntrustedRelease bool `json:"drop_untrusted_release,omitempty"`
}

// DHCP-snooping counter indexes (bank "dhcpsnoop").
const (
	DHCPSnoopPassed = iota
	DHCPSnoopLearned
	DHCPSnoopRogueDropped
	DHCPSnoopReleaseDropped
	DHCPSnoopNonDHCP
	dhcpSnoopCounters
)

type dhcpSnoopApp struct {
	prog        *ppe.Program
	state       *ppe.State
	leases      *ppe.Table // client IPv4(32b) → MAC(48b)
	ctr         *ppe.CounterBank
	trustedDir  string
	dropRelease bool
	v           packet.View
}

// NewDHCPSnoop builds a DHCP-snooping instance.
func NewDHCPSnoop() *dhcpSnoopApp {
	a := &dhcpSnoopApp{state: ppe.NewState(), trustedDir: "optical-to-edge"}
	spec := ppe.TableSpec{Name: "dhcp_leases", Kind: ppe.TableExact, KeyBits: 32, ValueBits: 48, Size: DHCPSnoopBindings}
	a.leases = a.state.AddTable(spec)
	a.ctr = a.state.AddCounters("dhcpsnoop", dhcpSnoopCounters)
	a.prog = &ppe.Program{
		Name:    "dhcpsnoop",
		Version: 1,
		ParseLayers: []packet.LayerType{
			packet.LayerTypeEthernet, packet.LayerTypeIPv4,
			packet.LayerTypeUDP, packet.LayerTypeDHCPv4,
		},
		Tables: []ppe.TableSpec{spec},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionCounterBank, Count: dhcpSnoopCounters},
		},
		Stages:  3,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *dhcpSnoopApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *dhcpSnoopApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *dhcpSnoopApp) Configure(config []byte) error {
	if len(config) == 0 {
		return nil
	}
	var cfg DHCPSnoopConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("dhcpsnoop: %w", err)
	}
	if cfg.TrustedDirection != "" {
		switch cfg.TrustedDirection {
		case "edge-to-optical", "optical-to-edge":
		default:
			return fmt.Errorf("dhcpsnoop: bad trusted_direction %q", cfg.TrustedDirection)
		}
		a.trustedDir = cfg.TrustedDirection
	}
	a.dropRelease = cfg.DropUntrustedRelease
	return nil
}

func (a *dhcpSnoopApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if !a.v.Parse(ctx.Data) {
		a.ctr.Inc(DHCPSnoopNonDHCP, len(ctx.Data))
		return ppe.VerdictPass
	}
	v := &a.v
	if _, ok := v.DHCPPayload(); !ok {
		a.ctr.Inc(DHCPSnoopNonDHCP, len(ctx.Data))
		return ppe.VerdictPass
	}
	trusted := dirEnabled(a.trustedDir, ctx.Dir)

	if v.DHCPOp() == packet.DHCPOpReply {
		// Server → client traffic. From the untrusted side this is a
		// rogue server answering local clients: cut it.
		if !trusted {
			a.ctr.Inc(DHCPSnoopRogueDropped, len(ctx.Data))
			return ppe.VerdictDrop
		}
		if mt, ok := v.DHCPMsgType(); ok && mt == packet.DHCPAck {
			your := v.DHCPYourIP()
			if your[0]|your[1]|your[2]|your[3] != 0 {
				if a.leases.Add(your, v.DHCPClientMAC()) == nil {
					a.ctr.Inc(DHCPSnoopLearned, len(ctx.Data))
				}
			}
		}
		a.ctr.Inc(DHCPSnoopPassed, len(ctx.Data))
		return ppe.VerdictPass
	}

	// Client → server traffic from the untrusted side: guard the lease
	// table against spoofed RELEASE/DECLINE for someone else's address.
	if a.dropRelease && !trusted {
		if mt, ok := v.DHCPMsgType(); ok &&
			(mt == packet.DHCPRelease || mt == packet.DHCPDecline) {
			ciaddr := v.DHCPClientIP()
			if mac, bound := a.leases.Lookup(ciaddr); bound {
				claimed := v.DHCPClientMAC()
				for i := range mac {
					if mac[i] != claimed[i] {
						a.ctr.Inc(DHCPSnoopReleaseDropped, len(ctx.Data))
						return ppe.VerdictDrop
					}
				}
			}
		}
	}
	a.ctr.Inc(DHCPSnoopPassed, len(ctx.Data))
	return ppe.VerdictPass
}
