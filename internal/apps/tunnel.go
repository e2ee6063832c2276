package apps

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/netip"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// Tunnel modes.
const (
	TunnelGRE   = "gre"
	TunnelVXLAN = "vxlan"
	TunnelIPIP  = "ipip"
)

// TunnelConfig configures encapsulation: frames from the edge are wrapped
// toward the optical side; matching tunnel traffic from the optical side
// is unwrapped ("insert tunneling headers for GRE, VXLAN, or IP-in-IP
// without involving the host", §3).
type TunnelConfig struct {
	Mode     string `json:"mode"`
	LocalIP  string `json:"local_ip"`
	RemoteIP string `json:"remote_ip"`
	LocalMAC string `json:"local_mac"`
	// GatewayMAC is the next hop toward the tunnel remote.
	GatewayMAC string `json:"gateway_mac"`
	VNI        uint32 `json:"vni,omitempty"` // VXLAN
	GREKey     uint32 `json:"gre_key,omitempty"`
	TTL        uint8  `json:"ttl,omitempty"`
	// MTU bounds the encapsulated frame (outer packets carry DF); frames
	// that would exceed it are dropped and counted. Default 1518.
	MTU int `json:"mtu,omitempty"`
}

// Tunnel counter indexes (bank "tunnel").
const (
	TunnelEncapped = iota
	TunnelDecapped
	TunnelPassed
	TunnelErrors
	TunnelTooBig
	tunnelCounters
)

// decapStatus classifies an optical-side frame.
type decapStatus int

const (
	// decapPass: not this endpoint's tunnel traffic (wrong destination,
	// non-IP, a foreign tenant's VNI, or a protocol the mode does not
	// own) — forwarded untouched.
	decapPass decapStatus = iota
	// decapOK: a well-formed tunnel frame, inner payload recovered.
	decapOK
	// decapErr: addressed to this endpoint and claiming its tunnel mode,
	// but malformed (truncated or corrupt outer headers) — dropped and
	// counted in TunnelErrors, never silently forwarded.
	decapErr
)

type tunnelApp struct {
	prog  *ppe.Program
	state *ppe.State
	ctr   *ppe.CounterBank

	mode            string
	local, remote   netip.Addr
	local4          [4]byte
	localMAC, gwMAC packet.MAC
	vni, greKey     uint32
	ttl             uint8
	mtu             int
	v               packet.View

	// outer is the header encap prepends, built once at Configure so the
	// hot path does not allocate (the property tests pin 0 allocs/op). It
	// is nil when Configure accepted parameters that do not serialize (a
	// VNI over 24 bits), which drops every edge frame as TunnelErrors.
	outer *outerHeader
}

// NewTunnel builds a tunnel endpoint instance.
func NewTunnel() *tunnelApp {
	a := &tunnelApp{state: ppe.NewState()}
	a.ctr = a.state.AddCounters("tunnel", tunnelCounters)
	a.prog = &ppe.Program{
		Name:        "tunnel",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4, packet.LayerTypeUDP},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionPush, Bytes: 50}, // worst case: VXLAN outer stack
			{Kind: ppe.ActionPop, Bytes: 50},
			{Kind: ppe.ActionChecksum},
			{Kind: ppe.ActionHash, Bits: 16}, // source-port entropy
			{Kind: ppe.ActionCounterBank, Count: tunnelCounters},
		},
		Stages:  3,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *tunnelApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *tunnelApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *tunnelApp) Configure(config []byte) error {
	var cfg TunnelConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("tunnel: %w", err)
	}
	switch cfg.Mode {
	case TunnelGRE, TunnelVXLAN, TunnelIPIP:
	default:
		return fmt.Errorf("tunnel: unknown mode %q", cfg.Mode)
	}
	local, err := netip.ParseAddr(cfg.LocalIP)
	if err != nil {
		return fmt.Errorf("tunnel local: %w", err)
	}
	remote, err := netip.ParseAddr(cfg.RemoteIP)
	if err != nil {
		return fmt.Errorf("tunnel remote: %w", err)
	}
	if !local.Is4() || !remote.Is4() {
		return fmt.Errorf("tunnel: IPv4 endpoints required")
	}
	lmac, err := packet.ParseMAC(cfg.LocalMAC)
	if err != nil {
		return fmt.Errorf("tunnel local MAC: %w", err)
	}
	gmac, err := packet.ParseMAC(cfg.GatewayMAC)
	if err != nil {
		return fmt.Errorf("tunnel gateway MAC: %w", err)
	}
	a.mode, a.local, a.remote = cfg.Mode, local, remote
	a.local4 = local.As4()
	a.localMAC, a.gwMAC = lmac, gmac
	a.vni, a.greKey = cfg.VNI, cfg.GREKey
	a.ttl = cfg.TTL
	if a.ttl == 0 {
		a.ttl = 64
	}
	a.mtu = cfg.MTU
	if a.mtu == 0 {
		a.mtu = 1518
	}
	a.buildOuter()
	return nil
}

// buildOuter prepares the persistent outer header (nil if it does not
// serialize: see the field).
func (a *tunnelApp) buildOuter() {
	eth := packet.Ethernet{SrcMAC: a.localMAC, DstMAC: a.gwMAC, EtherType: packet.EtherTypeIPv4}
	ip := packet.IPv4{TTL: a.ttl, SrcIP: a.local, DstIP: a.remote, DontFrag: true}
	switch a.mode {
	case TunnelGRE:
		ip.Protocol = packet.IPProtocolGRE
		gre := packet.GRE{Protocol: packet.EtherTypeTransparentEthernet, KeyPresent: a.greKey != 0, Key: a.greKey}
		a.outer = newOuterHeader(&eth, &ip, &gre)
	case TunnelVXLAN:
		ip.Protocol = packet.IPProtocolUDP
		a.outer = newOuterHeader(&eth, &ip, &packet.UDP{DstPort: packet.PortVXLAN}, &packet.VXLAN{VNI: a.vni})
	case TunnelIPIP:
		ip.Protocol = packet.IPProtocolIPv4
		a.outer = newOuterHeader(&eth, &ip)
	}
}

func (a *tunnelApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if a.mode == "" {
		return ppe.VerdictPass
	}
	switch ctx.Dir {
	case ppe.DirEdgeToOptical:
		del := 0
		if a.mode == TunnelIPIP {
			// IP-in-IP carries the inner IP packet only.
			if !a.v.Parse(ctx.Data) || !a.v.IsIPv4 {
				a.ctr.Inc(TunnelErrors, len(ctx.Data))
				return ppe.VerdictDrop
			}
			del = a.v.L3Off
		}
		if a.outer == nil {
			a.ctr.Inc(TunnelErrors, len(ctx.Data))
			return ppe.VerdictDrop
		}
		size := a.outer.size(ctx.Data[del:])
		if size > a.mtu {
			// The outer header would push the frame past the egress MTU;
			// outer packets carry DF, so the hardware drops (an ICMP
			// too-big would be the control plane's job). The counter
			// records the would-be encapped size — not the inner size —
			// so MTU headroom is directly measurable from it.
			a.ctr.Inc(TunnelTooBig, size)
			return ppe.VerdictDrop
		}
		ctx.Data = a.outer.encap(ctx.Data, del)
		a.ctr.Inc(TunnelEncapped, len(ctx.Data))
	case ppe.DirOpticalToEdge:
		out, st := a.decap(ctx.Data)
		switch st {
		case decapPass:
			a.ctr.Inc(TunnelPassed, len(ctx.Data))
			return ppe.VerdictPass
		case decapErr:
			a.ctr.Inc(TunnelErrors, len(ctx.Data))
			return ppe.VerdictDrop
		}
		ctx.Data = out
		a.ctr.Inc(TunnelDecapped, len(out))
	}
	return ppe.VerdictPass
}

// decap classifies an optical-side frame and strips the tunnel header, in
// place, when it is well-formed tunnel traffic addressed to this endpoint.
func (a *tunnelApp) decap(data []byte) ([]byte, decapStatus) {
	v := &a.v
	if !v.Parse(data) || !v.IsIPv4 || [4]byte(v.DstIPv4()) != a.local4 {
		return nil, decapPass
	}
	l4 := v.L3Off + v.IPv4HeaderLen()
	switch {
	case a.mode == TunnelGRE && v.Proto == packet.IPProtocolGRE:
		var gre packet.GRE
		if gre.DecodeFromBytes(data[l4:]) != nil ||
			gre.Protocol != packet.EtherTypeTransparentEthernet {
			return nil, decapErr
		}
		return packet.Splice(data, 0, len(data)-len(gre.LayerPayload()), 0), decapOK
	case a.mode == TunnelVXLAN && v.Proto == packet.IPProtocolUDP && v.DstPort == packet.PortVXLAN:
		if len(data) < l4+16 {
			return nil, decapErr
		}
		var vx packet.VXLAN
		if vx.DecodeFromBytes(data[l4+8:]) != nil {
			return nil, decapErr
		}
		if vx.VNI != a.vni {
			// Well-formed but a different tenant's segment: not ours to
			// open — forward untouched.
			return nil, decapPass
		}
		return packet.Splice(data, 0, len(data)-len(vx.LayerPayload()), 0), decapOK
	case a.mode == TunnelIPIP && v.Proto == packet.IPProtocolIPv4:
		// Re-wrap the inner IP packet in an Ethernet frame toward the
		// edge host.
		out := packet.Splice(data, 0, l4, 14)
		copy(out[0:6], a.gwMAC[:])
		copy(out[6:12], a.localMAC[:])
		binary.BigEndian.PutUint16(out[12:14], uint16(packet.EtherTypeIPv4))
		return out, decapOK
	}
	return nil, decapPass
}
