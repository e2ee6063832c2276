package apps

import (
	"encoding/json"
	"fmt"
	"net/netip"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// DoH-block table capacities.
const (
	DoHBlockedNames = 8192
	DoHResolverIPs  = 1024
)

// DoHBlockConfig configures P4DDPI-style DNS filtering plus DoH-resolver
// blocking (the per-subscriber "DoH blocking" policy of §2.1).
type DoHBlockConfig struct {
	// BlockedDomains are matched against DNS QNAMEs, including all
	// subdomains ("ads.example" blocks "x.ads.example").
	BlockedDomains []string `json:"blocked_domains,omitempty"`
	// ResolverIPs are known DoH endpoints: TCP/UDP 443 to these is cut.
	ResolverIPs []string `json:"resolver_ips,omitempty"`
}

// DoH counter indexes (bank "doh").
const (
	DoHDNSBlocked = iota
	DoHHTTPSBlocked
	DoHPassed
	dohCounters
)

type dohApp struct {
	prog      *ppe.Program
	state     *ppe.State
	names     *ppe.Table // packet.FNV64(qname suffix)(64b) → action(8b)
	resolvers *ppe.Table // IPv4(32b) → action(8b)
	ctr       *ppe.CounterBank
	v         packet.View
}

// NewDoHBlock builds a DNS/DoH filtering instance.
func NewDoHBlock() *dohApp {
	a := &dohApp{state: ppe.NewState()}
	nameSpec := ppe.TableSpec{Name: "blocked_names", Kind: ppe.TableExact, KeyBits: 64, ValueBits: 8, Size: DoHBlockedNames}
	resSpec := ppe.TableSpec{Name: "resolvers", Kind: ppe.TableExact, KeyBits: 32, ValueBits: 8, Size: DoHResolverIPs}
	a.names = a.state.AddTable(nameSpec)
	a.resolvers = a.state.AddTable(resSpec)
	a.ctr = a.state.AddCounters("doh", dohCounters)
	a.prog = &ppe.Program{
		Name:        "dohblock",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4, packet.LayerTypeUDP, packet.LayerTypeDNS},
		Tables:      []ppe.TableSpec{nameSpec, resSpec},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionHash, Bits: 64},
			{Kind: ppe.ActionCounterBank, Count: dohCounters},
		},
		Stages:  3,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *dohApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *dohApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *dohApp) Configure(config []byte) error {
	if len(config) == 0 {
		return nil
	}
	var cfg DoHBlockConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("dohblock: %w", err)
	}
	for _, d := range cfg.BlockedDomains {
		if err := a.BlockDomain(d); err != nil {
			return err
		}
	}
	for _, ip := range cfg.ResolverIPs {
		if err := a.BlockResolver(ip); err != nil {
			return err
		}
	}
	return nil
}

// BlockDomain adds a domain (and implicitly its subdomains) to the list.
func (a *dohApp) BlockDomain(domain string) error { return blockName(a.names, "dohblock", domain) }

// BlockResolver adds a DoH endpoint IP.
func (a *dohApp) BlockResolver(ip string) error {
	addr, err := netip.ParseAddr(ip)
	if err != nil || !addr.Is4() {
		return fmt.Errorf("dohblock: bad resolver IP %q", ip)
	}
	a4 := addr.As4()
	return a.resolvers.Add(a4[:], []byte{1})
}

func (a *dohApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if !a.v.Parse(ctx.Data) || !a.v.IsIPv4 {
		return ppe.VerdictPass
	}
	v := &a.v

	// DoH path: HTTPS to a known resolver.
	if v.DstPort == packet.PortHTTPS &&
		(v.Proto == packet.IPProtocolTCP || v.Proto == packet.IPProtocolUDP) {
		if _, blocked := a.resolvers.Lookup(v.DstIPv4()); blocked {
			a.ctr.Inc(DoHHTTPSBlocked, len(ctx.Data))
			return ppe.VerdictDrop
		}
	}

	// Plain-DNS path: the first question of a query on UDP 53.
	if blocked, _ := dnsQueryBlocked(v, a.names); blocked {
		a.ctr.Inc(DoHDNSBlocked, len(ctx.Data))
		return ppe.VerdictDrop
	}

	a.ctr.Inc(DoHPassed, len(ctx.Data))
	return ppe.VerdictPass
}
