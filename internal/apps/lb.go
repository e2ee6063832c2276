package apps

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/netip"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// LBMaxBackends bounds the backend table.
const LBMaxBackends = 256

// LBConfig configures the Katran-style L4 load balancer of §3: traffic to
// a virtual IP is steered to a backend chosen by a symmetric flow hash,
// "executed directly at the optical boundary".
type LBConfig struct {
	VIP      string      `json:"vip"`
	Backends []LBBackend `json:"backends"`
}

// LBBackend is one real server.
type LBBackend struct {
	IP  string `json:"ip"`
	MAC string `json:"mac"`
}

// LB counter indexes (bank "lb").
const (
	LBSteered = iota
	LBPassed
	lbCounters
)

type lbApp struct {
	prog      *ppe.Program
	state     *ppe.State
	backends  *ppe.Table // index(16b) → MAC(48b)+IP(32b)
	nBackends *ppe.Register
	ctr       *ppe.CounterBank
	vip       [4]byte
	haveVIP   bool
	v         packet.View
}

// NewLB builds a load-balancer instance.
func NewLB() *lbApp {
	a := &lbApp{state: ppe.NewState()}
	spec := ppe.TableSpec{Name: "backends", Kind: ppe.TableExact, KeyBits: 16, ValueBits: 80, Size: LBMaxBackends}
	a.backends = a.state.AddTable(spec)
	a.nBackends = a.state.AddRegister("n_backends")
	a.ctr = a.state.AddCounters("lb", lbCounters)
	a.prog = &ppe.Program{
		Name:        "lb",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4, packet.LayerTypeTCP},
		Tables:      []ppe.TableSpec{spec},
		Registers:   []ppe.RegisterSpec{{Name: "n_backends", Bits: 16}},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionHash, Bits: 64},
			{Kind: ppe.ActionRewrite, Bits: 80}, // dst MAC + dst IP
			{Kind: ppe.ActionChecksum},
			{Kind: ppe.ActionCounterBank, Count: lbCounters},
		},
		Stages:  3,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *lbApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *lbApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *lbApp) Configure(config []byte) error {
	if len(config) == 0 {
		return fmt.Errorf("lb: config with VIP and backends required")
	}
	var cfg LBConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("lb: %w", err)
	}
	vip, err := netip.ParseAddr(cfg.VIP)
	if err != nil || !vip.Is4() {
		return fmt.Errorf("lb: bad VIP %q", cfg.VIP)
	}
	a.vip = vip.As4()
	a.haveVIP = true
	if len(cfg.Backends) == 0 || len(cfg.Backends) > LBMaxBackends {
		return fmt.Errorf("lb: %d backends (want 1..%d)", len(cfg.Backends), LBMaxBackends)
	}
	for i, b := range cfg.Backends {
		ip, err := netip.ParseAddr(b.IP)
		if err != nil || !ip.Is4() {
			return fmt.Errorf("lb backend %d: bad IP %q", i, b.IP)
		}
		mac, err := packet.ParseMAC(b.MAC)
		if err != nil {
			return fmt.Errorf("lb backend %d: %w", i, err)
		}
		var key [2]byte
		binary.BigEndian.PutUint16(key[:], uint16(i))
		val := make([]byte, 10)
		copy(val[:6], mac[:])
		ip4 := ip.As4()
		copy(val[6:], ip4[:])
		if err := a.backends.Add(key[:], val); err != nil {
			return err
		}
	}
	a.nBackends.Store(uint64(len(cfg.Backends)))
	return nil
}

func (a *lbApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if ctx.Dir != ppe.DirEdgeToOptical || !a.haveVIP {
		return ppe.VerdictPass
	}
	if !a.v.Parse(ctx.Data) || !a.v.IsIPv4 || a.v.L4Off == 0 {
		a.ctr.Inc(LBPassed, len(ctx.Data))
		return ppe.VerdictPass
	}
	v := &a.v
	if [4]byte(v.DstIPv4()) != a.vip {
		a.ctr.Inc(LBPassed, len(ctx.Data))
		return ppe.VerdictPass
	}
	n := a.nBackends.Load()
	if n == 0 {
		return ppe.VerdictDrop
	}
	// Symmetric flow hash keeps both directions of a connection on the
	// same backend.
	h := symmetricFlowHash(v)
	var key [2]byte
	binary.BigEndian.PutUint16(key[:], uint16(h%n))
	val, ok := a.backends.Lookup(key[:])
	if !ok {
		return ppe.VerdictDrop
	}
	// Rewrite dst MAC and dst IP toward the chosen backend.
	copy(ctx.Data[0:6], val[:6])
	v.RewriteIPv4Addr(v.L3Off+16, val[6:10])
	a.ctr.Inc(LBSteered, len(ctx.Data))
	return ppe.VerdictPass
}

// symmetricFlowHash hashes the view's 5-tuple so that A→B and B→A
// collide: each endpoint (address, port) is hashed alone and the two are
// combined commutatively, then the protocol is mixed in.
func symmetricFlowHash(v *packet.View) uint64 {
	var sb, db [6]byte
	copy(sb[:4], v.SrcIPv4())
	binary.BigEndian.PutUint16(sb[4:], v.SrcPort)
	copy(db[:4], v.DstIPv4())
	binary.BigEndian.PutUint16(db[4:], v.DstPort)
	hs, hd := packet.FNV64(sb[:]), packet.FNV64(db[:])
	h := hs + hd
	h ^= hs * hd
	h = (h ^ uint64(v.Proto)) * 1099511628211
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
