package daemon

// Overlay mesh wiring: a daemon can host the fabric's rendezvous point,
// join one as a mesh endpoint, or both. The rendezvous is served over
// the same TLV/TCP management transport as the module agent, so
// flexsfp-ctl and the retrying mgmt.Client work against it unchanged.

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"flexsfp/internal/apps"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/overlay"
	"flexsfp/internal/packet"
)

// OverlayConfig enrolls the daemon in an in-cable overlay mesh.
type OverlayConfig struct {
	// Listen hosts a rendezvous point on this TCP address ("" = none).
	// A daemon may host without being a mesh endpoint itself.
	Listen string
	// Join is the rendezvous management address to register with. Empty
	// with Listen set registers in-process against the hosted rendezvous.
	Join string

	// IP is this cable's underlay tunnel IPv4 ("" = not a mesh
	// endpoint; the daemon only hosts). Requires App == "mesh".
	IP string
	// MAC is the underlay MAC; "" derives a locally-administered one
	// from the device ID.
	MAC string
	// Mode is the encapsulation peers use toward this cable: "gre"
	// (default) or "vxlan".
	Mode   string
	VNI    uint32
	GREKey uint32
	// Prefixes this endpoint announces, e.g. "10.200.1.0/24". An "@N"
	// suffix sets the ownership priority (0 = primary, higher = backup
	// that takes over on withdrawal): "10.200.3.0/24@1".
	Prefixes []string

	// SyncEvery re-reconciles against the rendezvous periodically so a
	// long-running daemon converges on late joiners and withdrawals
	// without an operator in the loop. 0 disables the background sync;
	// OverlaySync remains available either way.
	SyncEvery time.Duration
}

// modeByte maps the textual mode to the wire constant.
func (oc *OverlayConfig) modeByte() (uint8, error) {
	switch oc.Mode {
	case "", apps.TunnelGRE:
		return apps.MeshModeGRE, nil
	case apps.TunnelVXLAN:
		return apps.MeshModeVXLAN, nil
	default:
		return 0, fmt.Errorf("overlay mode %q (want gre or vxlan)", oc.Mode)
	}
}

// mac resolves the endpoint MAC, deriving one from the device ID when
// unset.
func (oc *OverlayConfig) mac(deviceID uint32) (packet.MAC, error) {
	if oc.MAC == "" {
		return packet.MAC{0x02, 0xcc, byte(deviceID >> 24), byte(deviceID >> 16),
			byte(deviceID >> 8), byte(deviceID)}, nil
	}
	return packet.ParseMAC(oc.MAC)
}

// endpoint builds the registration this daemon announces.
func (oc *OverlayConfig) endpoint(name string, deviceID uint32) (mgmt.OverlayEndpoint, error) {
	var ep mgmt.OverlayEndpoint
	ip, err := netip.ParseAddr(oc.IP)
	if err != nil || !ip.Is4() {
		return ep, fmt.Errorf("overlay endpoint IP %q: want IPv4", oc.IP)
	}
	mac, err := oc.mac(deviceID)
	if err != nil {
		return ep, fmt.Errorf("overlay endpoint MAC: %w", err)
	}
	mode, err := oc.modeByte()
	if err != nil {
		return ep, err
	}
	ep = mgmt.OverlayEndpoint{
		Name: name, IP: ip.As4(), MAC: mac, Mode: mode,
		VNI: oc.VNI, GREKey: oc.GREKey,
	}
	for _, s := range oc.Prefixes {
		spec, prioStr, hasPrio := strings.Cut(s, "@")
		prio := 0
		if hasPrio {
			prio, err = strconv.Atoi(prioStr)
			if err != nil || prio < 0 || prio > 255 {
				return ep, fmt.Errorf("overlay prefix %q: bad priority", s)
			}
		}
		p, err := netip.ParsePrefix(spec)
		if err != nil || !p.Addr().Is4() {
			return ep, fmt.Errorf("overlay prefix %q: want IPv4 CIDR", s)
		}
		ep.Prefixes = append(ep.Prefixes, mgmt.OverlayPrefix{
			IP: p.Masked().Addr().As4(), Len: uint8(p.Bits()), Priority: uint8(prio),
		})
	}
	return ep, nil
}

// meshConfigJSON derives the mesh app config from the overlay endpoint
// so a daemon booted with -app mesh and no -config encapsulates with
// exactly the parameters it registered.
func (oc *OverlayConfig) meshConfigJSON(deviceID uint32) (string, error) {
	mac, err := oc.mac(deviceID)
	if err != nil {
		return "", err
	}
	mode := oc.Mode
	if mode == "" {
		mode = apps.TunnelGRE
	}
	if _, err := oc.modeByte(); err != nil {
		return "", err
	}
	return fmt.Sprintf(`{"mode":%q,"local_ip":%q,"local_mac":%q,"vni":%d,"gre_key":%d}`,
		mode, oc.IP, mac.String(), oc.VNI, oc.GREKey), nil
}

// startOverlay boots the rendezvous listener and/or the mesh endpoint
// controller. handler is the daemon's locked management handler — the
// controller programs mesh tables through it so table writes serialize
// with every other simulator access.
func (d *Daemon) startOverlay(handler func(req []byte) []byte, logf func(string, ...any)) error {
	oc := d.cfg.Overlay
	if oc == nil {
		return nil
	}
	if oc.Listen != "" {
		d.rdv = overlay.NewRendezvous()
		d.rdvSrv = mgmt.NewServer(d.rdv.Handle)
		addr, err := d.rdvSrv.Listen(oc.Listen)
		if err != nil {
			return fmt.Errorf("overlay rendezvous listen: %w", err)
		}
		d.rdvAddr = addr
		logf("overlay rendezvous on %s", addr)
	}
	if oc.IP == "" {
		if oc.Join != "" {
			return fmt.Errorf("overlay join set without an endpoint IP")
		}
		return nil // rendezvous host only
	}
	if d.cfg.App != "mesh" {
		return fmt.Errorf("overlay endpoint requires the mesh app, got %q", d.cfg.App)
	}
	ep, err := oc.endpoint(d.cfg.Name, d.cfg.DeviceID)
	if err != nil {
		return err
	}

	var rdvClient *mgmt.Client
	switch {
	case oc.Join != "":
		conn, err := mgmt.Dial(oc.Join)
		if err != nil {
			return fmt.Errorf("overlay join %s: %w", oc.Join, err)
		}
		d.ovlConn = conn
		rdvClient = mgmt.NewClient(conn)
	case d.rdv != nil:
		// Hosting and joining in one daemon: skip the loopback hop.
		rdvClient = mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
			return d.rdv.Handle(req), nil
		}))
	default:
		return fmt.Errorf("overlay endpoint needs a rendezvous: set Join or Listen")
	}
	cable := mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
		return handler(req), nil
	}))
	d.ovl = overlay.NewController(ep, rdvClient, cable)
	if _, err := d.ovl.Register(); err != nil {
		return fmt.Errorf("overlay register: %w", err)
	}
	if _, err := d.OverlaySync(); err != nil {
		return fmt.Errorf("overlay sync: %w", err)
	}
	if d.reg != nil {
		// The snapshot reader holds d.mu, and OverlaySync mirrors these
		// under d.mu, so the funcs read plain fields.
		d.reg.GaugeFunc("overlay.generation", func() float64 { return float64(d.ovlGen) })
		d.reg.GaugeFunc("overlay.peers", func() float64 { return float64(d.ovlPeers) })
		d.reg.GaugeFunc("overlay.routes", func() float64 { return float64(d.ovlRoutes) })
	}
	if oc.SyncEvery > 0 {
		d.ovlStop = make(chan struct{})
		d.ovlDone = make(chan struct{})
		go d.overlaySyncLoop(oc.SyncEvery, logf)
	}
	logf("overlay endpoint %q registered with %d prefix(es)", ep.Name, len(ep.Prefixes))
	return nil
}

// overlaySyncLoop re-reconciles until Close. A sync that fails (the
// rendezvous is down, or this endpoint was withdrawn remotely) is
// logged and retried on the next tick — the datapath keeps its last
// converged state, and routes to genuinely dead peers fail closed.
func (d *Daemon) overlaySyncLoop(every time.Duration, logf func(string, ...any)) {
	defer close(d.ovlDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	lastGen := uint64(0)
	for {
		select {
		case <-d.ovlStop:
			return
		case <-tick.C:
			tab, err := d.OverlaySync()
			if err != nil {
				logf("overlay sync: %v", err)
				continue
			}
			if tab.Generation != lastGen {
				logf("overlay synced to generation %d (%d peers, %d routes)",
					tab.Generation, len(tab.Peers), len(tab.Routes))
				lastGen = tab.Generation
			}
		}
	}
}

// OverlaySync pulls the rendezvous table and reconciles the module's
// mesh tables against it, returning the table it converged to. Safe to
// call from any goroutine; syncs serialize among themselves and each
// table operation serializes with the management plane.
func (d *Daemon) OverlaySync() (mgmt.OverlayTable, error) {
	if d.ovl == nil {
		return mgmt.OverlayTable{}, fmt.Errorf("daemon is not an overlay endpoint")
	}
	d.ovlMu.Lock()
	defer d.ovlMu.Unlock()
	tab, err := d.ovl.Sync()
	if err != nil {
		return tab, err
	}
	d.mu.Lock()
	d.ovlGen = tab.Generation
	d.ovlPeers = len(tab.Peers)
	d.ovlRoutes = len(tab.Routes)
	d.mu.Unlock()
	return tab, nil
}

// RendezvousAddr is the hosted rendezvous listener's resolved address,
// or "" when this daemon does not host one.
func (d *Daemon) RendezvousAddr() string { return d.rdvAddr }

// closeOverlay stops the sync loop and tears down the overlay
// transports.
func (d *Daemon) closeOverlay() {
	if d.ovlStop != nil {
		close(d.ovlStop)
		<-d.ovlDone
		d.ovlStop = nil
	}
	if d.ovlConn != nil {
		d.ovlConn.Close()
	}
	if d.rdvSrv != nil {
		d.rdvSrv.Close()
	}
}
