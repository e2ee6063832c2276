package apps

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/netip"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// The mesh app is the tunnel app generalized to many remotes: the overlay
// control plane (internal/overlay) programs a prefix→peer route table and
// a peer→encap-state table, and the datapath maps each edge frame's
// destination /24 to a per-peer GRE or VXLAN wrap. The return path decaps
// traffic addressed to this cable's own endpoint. A peer withdrawn by the
// rendezvous plane disappears from mesh_peers, and any route still naming
// it fails closed (MeshNoPeer drop) — the datapath half of the "no frame
// delivered to a withdrawn peer" invariant.

// Mesh table names (mgmt-visible).
const (
	MeshRouteTable = "mesh_routes"
	MeshPeerTable  = "mesh_peers"
)

// Mesh table capacities: sized for datacenter-pod-scale fabrics (a /24
// per rack, tens of cables) while staying a rounding error on the
// MPF200T next to the NAT table.
const (
	MeshRouteTableSize = 1024
	MeshPeerTableSize  = 64
)

// Per-peer encap modes stored in mesh_peers values.
const (
	MeshModeGRE uint8 = iota + 1
	MeshModeVXLAN
)

// meshPeerValueLen is the encoded MeshPeer size: mode(1) + ip(4) +
// mac(6) + vni(4) + grekey(4).
const meshPeerValueLen = 19

// MeshPeer is the decoded mesh_peers table value: everything the
// datapath needs to encapsulate toward one remote cable.
type MeshPeer struct {
	Mode   uint8
	IP     [4]byte
	MAC    [6]byte
	VNI    uint32
	GREKey uint32
}

// Encode packs the peer into the mesh_peers value image.
func (p MeshPeer) Encode() [meshPeerValueLen]byte {
	var b [meshPeerValueLen]byte
	b[0] = p.Mode
	copy(b[1:5], p.IP[:])
	copy(b[5:11], p.MAC[:])
	binary.BigEndian.PutUint32(b[11:15], p.VNI)
	binary.BigEndian.PutUint32(b[15:19], p.GREKey)
	return b
}

// DecodeMeshPeer unpacks a mesh_peers value image.
func DecodeMeshPeer(b []byte) (MeshPeer, error) {
	if len(b) != meshPeerValueLen {
		return MeshPeer{}, fmt.Errorf("mesh: peer value is %d bytes, want %d", len(b), meshPeerValueLen)
	}
	p := MeshPeer{Mode: b[0]}
	copy(p.IP[:], b[1:5])
	copy(p.MAC[:], b[5:11])
	p.VNI = binary.BigEndian.Uint32(b[11:15])
	p.GREKey = binary.BigEndian.Uint32(b[15:19])
	return p, nil
}

// MeshRouteKey masks an inner destination IPv4 address to the /24 route
// key the mesh_routes table is indexed by.
func MeshRouteKey(ip [4]byte) [4]byte {
	ip[3] = 0
	return ip
}

// MeshPeerKey is the mesh_peers key image for a peer id.
func MeshPeerKey(id uint16) [2]byte {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], id)
	return b
}

// MeshRouteValue is the mesh_routes value image for a peer id.
func MeshRouteValue(id uint16) [2]byte { return MeshPeerKey(id) }

// MeshConfig configures one cable's overlay endpoint. Mode/VNI/GREKey
// describe the *receive* side — what remote peers use when encapsulating
// toward this cable; the transmit side is fully peer-table-driven.
type MeshConfig struct {
	Mode     string `json:"mode"` // "gre" or "vxlan"
	LocalIP  string `json:"local_ip"`
	LocalMAC string `json:"local_mac"`
	VNI      uint32 `json:"vni,omitempty"`
	GREKey   uint32 `json:"gre_key,omitempty"`
	TTL      uint8  `json:"ttl,omitempty"`
	MTU      int    `json:"mtu,omitempty"`
}

// Mesh counter indexes (bank "mesh").
const (
	MeshEncapped = iota
	MeshDecapped
	MeshPassed
	MeshErrors
	MeshTooBig
	// MeshNoRoute: edge frames whose destination matches no overlay
	// prefix; they pass untouched (underlay/uplink traffic).
	MeshNoRoute
	// MeshNoPeer: a route named a peer absent from mesh_peers — a
	// withdrawn or not-yet-synced peer. Fails closed.
	MeshNoPeer
	meshCounters
)

type meshApp struct {
	prog   *ppe.Program
	state  *ppe.State
	routes *ppe.Table
	peers  *ppe.Table
	ctr    *ppe.CounterBank

	overlayEndpoint
	v        packet.View
	routeKey [4]byte

	// cache is the per-peer outer header, rebuilt from the mesh_peers
	// table whenever its generation moves, so the per-frame path
	// serializes no layers and allocates nothing. A nil entry is a peer
	// whose header cannot be built (a VNI over 24 bits): its frames are
	// dropped as MeshErrors.
	cache    map[uint16]*outerHeader
	cacheGen uint64
}

// NewMesh builds an overlay mesh endpoint instance.
func NewMesh() *meshApp {
	a := &meshApp{state: ppe.NewState()}
	routeSpec := ppe.TableSpec{Name: MeshRouteTable, Kind: ppe.TableExact, KeyBits: 32, ValueBits: 16, Size: MeshRouteTableSize}
	peerSpec := ppe.TableSpec{Name: MeshPeerTable, Kind: ppe.TableExact, KeyBits: 16, ValueBits: meshPeerValueLen * 8, Size: MeshPeerTableSize}
	a.routes = a.state.AddTable(routeSpec)
	a.peers = a.state.AddTable(peerSpec)
	a.ctr = a.state.AddCounters("mesh", meshCounters)
	a.prog = &ppe.Program{
		Name:        "mesh",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4, packet.LayerTypeUDP},
		Tables:      []ppe.TableSpec{routeSpec, peerSpec},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionHash, Bits: 32},  // route lookup
			{Kind: ppe.ActionHash, Bits: 16},  // peer lookup + sport entropy
			{Kind: ppe.ActionPush, Bytes: 50}, // worst case: VXLAN outer stack
			{Kind: ppe.ActionPop, Bytes: 50},
			{Kind: ppe.ActionChecksum},
			{Kind: ppe.ActionCounterBank, Count: meshCounters},
		},
		Stages:  4,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *meshApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *meshApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *meshApp) Configure(config []byte) error {
	var cfg MeshConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("mesh: %w", err)
	}
	switch cfg.Mode {
	case TunnelGRE, TunnelVXLAN:
	default:
		return fmt.Errorf("mesh: unknown mode %q", cfg.Mode)
	}
	if err := a.configure("mesh", cfg.Mode, cfg.LocalIP, cfg.LocalMAC, cfg.VNI, cfg.GREKey, cfg.TTL, cfg.MTU); err != nil {
		return err
	}
	// Build the (empty) cache eagerly so the first frame is already on
	// the steady-state path.
	a.cache = map[uint16]*outerHeader{}
	a.cacheGen = a.peers.Generation()
	a.rebuildCache()
	return nil
}

// rebuildCache re-derives per-peer encap state from the mesh_peers
// table. Runs at control-plane rate (table generation changes), never
// per frame. The generation is read before the snapshot so a concurrent
// table write at worst forces one extra rebuild, never a stale cache.
func (a *meshApp) rebuildCache() {
	gen := a.peers.Generation()
	cache := make(map[uint16]*outerHeader, a.peers.Len())
	for _, e := range a.peers.Snapshot() {
		if len(e.Key) != 2 {
			continue
		}
		id := binary.BigEndian.Uint16(e.Key)
		p, err := DecodeMeshPeer(e.Value)
		if err != nil {
			continue
		}
		switch p.Mode {
		case MeshModeGRE:
			cache[id] = a.header(TunnelGRE, packet.MAC(p.MAC), netip.AddrFrom4(p.IP), p.VNI, p.GREKey)
		case MeshModeVXLAN:
			cache[id] = a.header(TunnelVXLAN, packet.MAC(p.MAC), netip.AddrFrom4(p.IP), p.VNI, p.GREKey)
		}
	}
	a.cache, a.cacheGen = cache, gen
}

func (a *meshApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if a.mode == "" {
		return ppe.VerdictPass
	}
	switch ctx.Dir {
	case ppe.DirEdgeToOptical:
		return a.handleEgress(ctx)
	case ppe.DirOpticalToEdge:
		return a.handleIngress(ctx)
	}
	return ppe.VerdictPass
}

// handleEgress routes an edge frame into the overlay: dst /24 → peer id
// → cached encap state.
func (a *meshApp) handleEgress(ctx *ppe.Ctx) ppe.Verdict {
	if !a.v.Parse(ctx.Data) || !a.v.IsIPv4 {
		a.ctr.Inc(MeshPassed, len(ctx.Data))
		return ppe.VerdictPass
	}
	copy(a.routeKey[:], a.v.DstIPv4())
	a.routeKey[3] = 0
	val, ok := a.routes.Lookup(a.routeKey[:])
	if !ok || len(val) != 2 {
		a.ctr.Inc(MeshNoRoute, len(ctx.Data))
		return ppe.VerdictPass
	}
	if gen := a.peers.Generation(); gen != a.cacheGen {
		a.rebuildCache()
	}
	enc, ok := a.cache[binary.BigEndian.Uint16(val)]
	if !ok {
		a.ctr.Inc(MeshNoPeer, len(ctx.Data))
		return ppe.VerdictDrop
	}
	if enc == nil {
		a.ctr.Inc(MeshErrors, len(ctx.Data))
		return ppe.VerdictDrop
	}
	size := enc.size(ctx.Data)
	if size > a.mtu {
		// Like the tunnel app, the counter records the would-be encapped
		// size so MTU headroom is measurable.
		a.ctr.Inc(MeshTooBig, size)
		return ppe.VerdictDrop
	}
	ctx.Data = enc.encap(ctx.Data, 0)
	a.ctr.Inc(MeshEncapped, len(ctx.Data))
	return ppe.VerdictPass
}

// handleIngress decaps overlay traffic addressed to this cable's own
// endpoint; everything else passes untouched.
func (a *meshApp) handleIngress(ctx *ppe.Ctx) ppe.Verdict {
	data, v := ctx.Data, &a.v
	if !v.Parse(data) || !v.IsIPv4 || [4]byte(v.DstIPv4()) != a.local4 {
		a.ctr.Inc(MeshPassed, len(data))
		return ppe.VerdictPass
	}
	inner, st := a.classify(v)
	switch st {
	case decapErr:
		a.ctr.Inc(MeshErrors, len(data))
		return ppe.VerdictDrop
	case decapOK:
		ctx.Data = packet.Splice(data, 0, len(data)-inner, 0)
		a.ctr.Inc(MeshDecapped, inner)
		return ppe.VerdictPass
	}
	a.ctr.Inc(MeshPassed, len(data))
	return ppe.VerdictPass
}
