package overlay

import (
	"fmt"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

// FabricSpec describes a tunnel fabric of N mesh cables on a shared
// sharded world. Base is the logical partition index of cable 0 — one
// Sharded can host several independent fabrics side by side.
type FabricSpec struct {
	Sh     *netsim.Sharded
	Cables int
	Base   int
	// Prefixes returns cable i's announced prefixes. Defaults to a
	// single primary /24, 10.200.(i+1).0/24.
	Prefixes func(i int) []mgmt.OverlayPrefix
	// Mode returns cable i's receive-side encap mode. Defaults to
	// alternating GRE / VXLAN so both datapaths are always exercised.
	Mode func(i int) uint8
	// Underlay link parameters. LinkBps defaults to 10G, LinkProp to
	// 500ns, QueueLimit to 64.
	LinkBps    int64
	LinkProp   netsim.Duration
	QueueLimit int
	// EdgeSink receives cable i's decapsulated edge-bound frames. It
	// runs on cable i's shard goroutine: per-cable state only. The frame
	// is released when it returns; copy what must outlive the call.
	EdgeSink func(i int, data []byte)
}

// Cable is one fabric member: the built module, its control plane, and
// its underlay links toward every other cable.
type Cable struct {
	Index    int
	Name     string
	Sim      *netsim.Simulator
	Mod      *core.Module
	Agent    *mgmt.Agent
	Ctl      *Controller
	Endpoint mgmt.OverlayEndpoint
	// Links[j] carries this cable's encapsulated frames to cable j
	// (nil at j == Index).
	Links []*netsim.Link
	// NoLinkDrops counts optical frames whose outer destination matched
	// no fabric underlay address. Written only on this cable's shard.
	NoLinkDrops uint64

	view packet.View
}

// Fabric is a rendezvous plus its member cables, fully wired.
type Fabric struct {
	Rdv    *Rendezvous
	Cables []*Cable
}

// CableIP returns the underlay tunnel address of fabric cable i.
func CableIP(i int) [4]byte { return [4]byte{10, 254, 0, byte(i + 1)} }

// CableMAC returns the underlay MAC of fabric cable i.
func CableMAC(i int) [6]byte { return [6]byte{0x02, 0xcc, 0, 0, 0, byte(i + 1)} }

// DefaultPrefix returns cable i's default announced /24.
func DefaultPrefix(i int) mgmt.OverlayPrefix {
	return mgmt.OverlayPrefix{IP: [4]byte{10, 200, byte(i + 1), 0}, Len: 24}
}

func modeName(m uint8) string {
	if m == apps.MeshModeVXLAN {
		return apps.TunnelVXLAN
	}
	return apps.TunnelGRE
}

// NewFabric builds the cables and the full-mesh underlay. All wiring —
// module construction order, link creation order (i-major, then j),
// portal ids — is a pure function of the spec, independent of shard
// count, which is what keeps the overlay experiments byte-identical
// under any parallelism.
func NewFabric(spec FabricSpec) (*Fabric, error) {
	if spec.Cables < 2 {
		return nil, fmt.Errorf("overlay: a fabric needs at least 2 cables, got %d", spec.Cables)
	}
	if spec.LinkBps == 0 {
		spec.LinkBps = 10_000_000_000
	}
	if spec.LinkProp == 0 {
		spec.LinkProp = 500 * netsim.Nanosecond
	}
	if spec.QueueLimit == 0 {
		spec.QueueLimit = 64
	}
	if spec.Prefixes == nil {
		spec.Prefixes = func(i int) []mgmt.OverlayPrefix {
			return []mgmt.OverlayPrefix{DefaultPrefix(i)}
		}
	}
	if spec.Mode == nil {
		spec.Mode = func(i int) uint8 {
			if i%2 == 1 {
				return apps.MeshModeVXLAN
			}
			return apps.MeshModeGRE
		}
	}

	f := &Fabric{Rdv: NewRendezvous()}
	rdvClient := func() *mgmt.Client {
		return mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
			return f.Rdv.Handle(req), nil
		}))
	}

	n := spec.Cables
	for i := 0; i < n; i++ {
		mode := spec.Mode(i)
		ip, mac := CableIP(i), CableMAC(i)
		cfg := apps.MeshConfig{
			Mode:     modeName(mode),
			LocalIP:  fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3]),
			LocalMAC: fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", mac[0], mac[1], mac[2], mac[3], mac[4], mac[5]),
			VNI:      4000 + uint32(i+1),
			GREKey:   700 + uint32(i+1),
		}
		sim := spec.Sh.Shard(spec.Sh.ShardFor(spec.Base + i))
		name := fmt.Sprintf("cable-%d", i)
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name:     name,
			DeviceID: uint32(i + 1),
			Shell:    hls.TwoWayCore,
			App:      "mesh",
			Config:   cfg,
		})
		if err != nil {
			return nil, fmt.Errorf("overlay: build %s: %w", name, err)
		}
		agent := mgmt.NewAgent(mod)
		ep := mgmt.OverlayEndpoint{
			Name: name, IP: ip, MAC: mac, Mode: mode,
			VNI: cfg.VNI, GREKey: cfg.GREKey,
			Prefixes: spec.Prefixes(i),
		}
		cableClient := mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
			return agent.Handle(req), nil
		}))
		c := &Cable{
			Index: i, Name: name, Sim: sim, Mod: mod, Agent: agent,
			Ctl:      NewController(ep, rdvClient(), cableClient),
			Endpoint: ep,
			Links:    make([]*netsim.Link, n),
		}
		f.Cables = append(f.Cables, c)
	}

	// Full-mesh underlay. Always through ConnectLink — even between
	// co-resident cables — so the portal order is a topology property.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dst := f.Cables[j]
			l := spec.Sh.ConnectLink(
				spec.Sh.ShardFor(spec.Base+i), spec.Sh.ShardFor(spec.Base+j),
				spec.LinkBps, spec.LinkProp, dst.Mod.RxOptical)
			l.QueueLimit = spec.QueueLimit
			f.Cables[i].Links[j] = l
		}
	}

	// Datapath hookup: optical TX frames route to the peer link by outer
	// destination IP, which takes the module's frame as it is; edge TX
	// frames are the decapsulated deliveries.
	for i := 0; i < n; i++ {
		c := f.Cables[i]
		c.Mod.SetTx(core.PortOptical, func(data []byte) {
			var d [4]byte // stays zero, matching no link, for non-IPv4
			if c.view.Parse(data) && c.view.IsIPv4 {
				d = [4]byte(c.view.DstIPv4())
			}
			if d[0] != 10 || d[1] != 254 || d[2] != 0 || d[3] < 1 || int(d[3]) > n || int(d[3]) == c.Index+1 {
				c.NoLinkDrops++
				packet.PutBuffer(data)
			} else if !c.Links[d[3]-1].Send(data) {
				packet.PutBuffer(data)
			}
		})
		if spec.EdgeSink != nil {
			idx := i
			c.Mod.SetTx(core.PortEdge, func(data []byte) {
				spec.EdgeSink(idx, data)
				packet.PutBuffer(data)
			})
		}
	}
	return f, nil
}

// RegisterAll registers every cable in index order (so stable IDs are
// deterministic) and then syncs them all.
func (f *Fabric) RegisterAll() error {
	for _, c := range f.Cables {
		if _, err := c.Ctl.Register(); err != nil {
			return fmt.Errorf("overlay: register %s: %w", c.Name, err)
		}
	}
	return f.SyncAll()
}

// SyncAll reconciles every cable against the current rendezvous table.
// Call it from the host thread at a barrier (between Run windows).
func (f *Fabric) SyncAll() error {
	for _, c := range f.Cables {
		if _, err := c.Ctl.Sync(); err != nil {
			return fmt.Errorf("overlay: sync %s: %w", c.Name, err)
		}
	}
	return nil
}

// Withdraw removes a cable's endpoint from the rendezvous via another
// cable's controller (the observer that detected the failure).
func (f *Fabric) Withdraw(via int, name string) error {
	_, err := f.Cables[via].Ctl.Withdraw(name)
	return err
}

// SetCableLinks forces every underlay link touching cable i up or down —
// the transport side of a cable failure.
func (f *Fabric) SetCableLinks(i int, up bool) {
	for j, c := range f.Cables {
		if j == i {
			for _, l := range c.Links {
				if l != nil {
					l.SetUp(up)
				}
			}
			continue
		}
		if l := c.Links[i]; l != nil {
			l.SetUp(up)
		}
	}
}
