package apps

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// DNSBlockNames is the blocklist capacity (suffix hashes).
const DNSBlockNames = 16384

// DNSBlockConfig configures the line-rate DNS blocklist. It models the
// hardware fast path: the first question's QNAME is extracted straight
// from the parser view with zero allocation and every parent suffix is
// hashed against an exact-match table, so the whole decision fits the
// match-action pipeline. The dohblock app runs the same name match and
// also cuts DoH resolver traffic.
type DNSBlockConfig struct {
	// Domains are blocked together with all their subdomains.
	Domains []string `json:"domains,omitempty"`
	// Direction limits enforcement ("edge-to-optical" by default:
	// queries leaving subscriber hosts).
	Direction string `json:"direction,omitempty"`
}

// DNS-block counter indexes (bank "dnsblock").
const (
	DNSBlockPassed = iota
	DNSBlockDropped
	DNSBlockNonDNS
	dnsBlockCounters
)

type dnsBlockApp struct {
	prog  *ppe.Program
	state *ppe.State
	names *ppe.Table // packet.FNV64(qname suffix)(64b) → action(8b)
	ctr   *ppe.CounterBank
	dir   string
	v     packet.View
}

// NewDNSBlock builds a DNS blocklist instance.
func NewDNSBlock() *dnsBlockApp {
	a := &dnsBlockApp{state: ppe.NewState(), dir: "edge-to-optical"}
	spec := ppe.TableSpec{Name: "dns_blocklist", Kind: ppe.TableExact, KeyBits: 64, ValueBits: 8, Size: DNSBlockNames}
	a.names = a.state.AddTable(spec)
	a.ctr = a.state.AddCounters("dnsblock", dnsBlockCounters)
	a.prog = &ppe.Program{
		Name:    "dnsblock",
		Version: 1,
		ParseLayers: []packet.LayerType{
			packet.LayerTypeEthernet, packet.LayerTypeIPv4,
			packet.LayerTypeUDP, packet.LayerTypeDNS,
		},
		Tables: []ppe.TableSpec{spec},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionHash, Bits: 64},
			{Kind: ppe.ActionCounterBank, Count: dnsBlockCounters},
		},
		Stages:  2,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *dnsBlockApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *dnsBlockApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *dnsBlockApp) Configure(config []byte) error {
	if len(config) == 0 {
		return nil
	}
	var cfg DNSBlockConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("dnsblock: %w", err)
	}
	if cfg.Direction != "" {
		a.dir = cfg.Direction
	}
	for _, d := range cfg.Domains {
		if err := a.Block(d); err != nil {
			return err
		}
	}
	return nil
}

// Block adds a domain (and implicitly all subdomains) to the blocklist.
func (a *dnsBlockApp) Block(domain string) error { return blockName(a.names, "dnsblock", domain) }

func (a *dnsBlockApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if !a.v.Parse(ctx.Data) || !dirEnabled(a.dir, ctx.Dir) {
		a.ctr.Inc(DNSBlockNonDNS, len(ctx.Data))
		return ppe.VerdictPass
	}
	blocked, ok := dnsQueryBlocked(&a.v, a.names)
	switch {
	case !ok:
		a.ctr.Inc(DNSBlockNonDNS, len(ctx.Data))
		return ppe.VerdictPass
	case blocked:
		a.ctr.Inc(DNSBlockDropped, len(ctx.Data))
		return ppe.VerdictDrop
	}
	a.ctr.Inc(DNSBlockPassed, len(ctx.Data))
	return ppe.VerdictPass
}

// blockName adds a domain's hash to a blocked-name table; the domain and
// all its subdomains then match dnsQueryBlocked.
func blockName(names *ppe.Table, app, domain string) error {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	if domain == "" {
		return fmt.Errorf("%s: empty domain", app)
	}
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], packet.FNV64([]byte(domain)))
	return names.Add(key[:], []byte{1})
}

// dnsQueryBlocked is the one DNS-name matcher. ok reports whether v is a
// DNS query (UDP to port 53) with a readable first QNAME; blocked reports
// whether that name or any parent suffix is in names. Only the first
// question counts: resolvers answer FORMERR to any other question count
// (RFC 9619).
func dnsQueryBlocked(v *packet.View, names *ppe.Table) (blocked, ok bool) {
	if _, ok := v.DNSPayload(); !ok || v.DstPort != packet.PortDNS || v.DNSIsResponse() {
		return false, false
	}
	var buf [256]byte // QNAME scratch: stays on the stack
	name, ok := v.DNSQName(buf[:0])
	if !ok {
		return false, false
	}
	// Walk the name and every parent suffix through the hash table, the
	// way the pipeline's hash stage would over per-label boundaries.
	for {
		var key [8]byte
		binary.BigEndian.PutUint64(key[:], packet.FNV64(name))
		if _, hit := names.Lookup(key[:]); hit {
			return true, true
		}
		dot := bytes.IndexByte(name, '.')
		if dot < 0 {
			return false, true
		}
		name = name[dot+1:]
	}
}
