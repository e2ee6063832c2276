package apps

import (
	"cmp"
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
	// GREKey, when nonzero, is written into every GRE header on encap and
	// required on decap: a GRE frame addressed to this endpoint that
	// carries no key, or another key, is dropped and counted in
	// TunnelErrors, as the mesh does.
	GREKey uint32 `json:"gre_key,omitempty"`
	TTL    uint8  `json:"ttl,omitempty"`
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

	overlayEndpoint
	remote netip.Addr
	gwMAC  packet.MAC
	v      packet.View

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
	var e overlayEndpoint
	if err := e.configure("tunnel", cfg.Mode, cfg.LocalIP, cfg.LocalMAC, cfg.VNI, cfg.GREKey, cfg.TTL, cfg.MTU); err != nil {
		return err
	}
	remote, err := netip.ParseAddr(cfg.RemoteIP)
	if err != nil {
		return fmt.Errorf("tunnel remote: %w", err)
	}
	if !remote.Is4() {
		return fmt.Errorf("tunnel: IPv4 endpoints required")
	}
	gmac, err := packet.ParseMAC(cfg.GatewayMAC)
	if err != nil {
		return fmt.Errorf("tunnel gateway MAC: %w", err)
	}
	a.overlayEndpoint, a.remote, a.gwMAC = e, remote, gmac
	a.outer = e.header(e.mode, gmac, remote, e.vni, e.greKey)
	return nil
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
	if a.mode == TunnelIPIP {
		if v.Proto != packet.IPProtocolIPv4 {
			return nil, decapPass
		}
		// Re-wrap the inner IP packet in an Ethernet frame toward the
		// edge host.
		out := packet.Splice(data, 0, v.L3Off+v.IPv4HeaderLen(), 14)
		copy(out[0:6], a.gwMAC[:])
		copy(out[6:12], a.localMAC[:])
		binary.BigEndian.PutUint16(out[12:14], uint16(packet.EtherTypeIPv4))
		return out, decapOK
	}
	inner, st := a.classify(v)
	if st != decapOK {
		return nil, st
	}
	return packet.Splice(data, 0, len(data)-inner, 0), decapOK
}

// overlayEndpoint is what a GRE, VXLAN or IP-in-IP endpoint — the point
// tunnel or one mesh cable — knows of itself: its address, the VNI and GRE
// key remotes use toward it, and the fields of the outer headers it sends.
type overlayEndpoint struct {
	mode        string
	local       netip.Addr
	local4      [4]byte
	localMAC    packet.MAC
	vni, greKey uint32
	ttl         uint8
	mtu         int
}

// configure validates the endpoint's address and MAC and fills it in. TTL
// defaults to 64 and MTU to 1518.
func (e *overlayEndpoint) configure(app, mode, localIP, localMAC string, vni, greKey uint32, ttl uint8, mtu int) error {
	local, err := netip.ParseAddr(localIP)
	if err != nil {
		return fmt.Errorf("%s local: %w", app, err)
	}
	if !local.Is4() {
		return fmt.Errorf("%s: IPv4 endpoint required", app)
	}
	mac, err := packet.ParseMAC(localMAC)
	if err != nil {
		return fmt.Errorf("%s local MAC: %w", app, err)
	}
	*e = overlayEndpoint{mode: mode, local: local, local4: local.As4(), localMAC: mac,
		vni: vni, greKey: greKey, ttl: cmp.Or(ttl, 64), mtu: cmp.Or(mtu, 1518)}
	return nil
}

// header builds the outer header toward one remote: GRE with the remote's
// key, VXLAN with its VNI, or IP-in-IP. It is nil when the header does not
// serialize (a VNI over 24 bits).
func (e *overlayEndpoint) header(mode string, mac packet.MAC, ip netip.Addr, vni, greKey uint32) *outerHeader {
	eth := packet.Ethernet{SrcMAC: e.localMAC, DstMAC: mac, EtherType: packet.EtherTypeIPv4}
	outer := packet.IPv4{TTL: e.ttl, SrcIP: e.local, DstIP: ip, DontFrag: true}
	switch mode {
	case TunnelGRE:
		outer.Protocol = packet.IPProtocolGRE
		gre := packet.GRE{Protocol: packet.EtherTypeTransparentEthernet, KeyPresent: greKey != 0, Key: greKey}
		return newOuterHeader(&eth, &outer, &gre)
	case TunnelVXLAN:
		outer.Protocol = packet.IPProtocolUDP
		return newOuterHeader(&eth, &outer, &packet.UDP{DstPort: packet.PortVXLAN}, &packet.VXLAN{VNI: vni})
	}
	outer.Protocol = packet.IPProtocolIPv4
	return newOuterHeader(&eth, &outer)
}

// classify is the one GRE/VXLAN decap classifier, shared by the point
// tunnel and the mesh. v is a parsed IPv4 frame addressed to this
// endpoint. On decapOK, inner is the length of the inner Ethernet frame,
// which ends the frame. A configured GRE key is required: a GRE frame that
// claims the endpoint without it is corrupt or spoofed.
func (e *overlayEndpoint) classify(v *packet.View) (inner int, st decapStatus) {
	switch {
	case e.mode == TunnelGRE && v.Proto == packet.IPProtocolGRE:
		n, ok := v.GREHeaderLen()
		if !ok || v.GREProtocol() != packet.EtherTypeTransparentEthernet {
			return 0, decapErr
		}
		if key, present := v.GREKey(); e.greKey != 0 && (!present || key != e.greKey) {
			return 0, decapErr
		}
		return len(v.Data) - v.L4Off - n, decapOK
	case e.mode == TunnelVXLAN && v.Proto == packet.IPProtocolUDP && v.DstPort == packet.PortVXLAN:
		vni, ok := v.VXLANVNI()
		if !ok {
			return 0, decapErr
		}
		if vni != e.vni {
			// Well-formed but a different tenant's segment: not ours to
			// open — forward untouched.
			return 0, decapPass
		}
		return len(v.Data) - v.L7Off - packet.VXLANHeaderLen, decapOK
	}
	return 0, decapPass
}
