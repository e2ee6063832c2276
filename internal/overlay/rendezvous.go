// Package overlay implements the in-cable overlay mesh of ROADMAP item 4:
// N FlexSFP cables form a tunnel fabric among themselves, with the
// legacy switches between them staying dumb (§2.1's retrofit story
// scaled out to a datacenter interconnect). It has three parts:
//
//   - Rendezvous: the control-plane meeting point. Cables register their
//     overlay endpoint and announced prefixes over the standard mgmt TLV
//     envelope; the rendezvous assigns stable peer IDs, computes prefix
//     ownership (primary/backup priority), and serves the fabric-wide
//     table. Withdrawing a cable re-routes its prefixes to the next
//     announcer — the re-route state machine per prefix is
//     primary-owned → backup-owned → unrouted.
//
//   - Controller: one per cable. Registers the cable, polls the
//     rendezvous table, and reconciles the cable's mesh_routes /
//     mesh_peers PPE tables through the retrying mgmt client.
//
//   - Fabric: the netsim wiring — each cable a shard-placeable node,
//     full-mesh underlay links with real propagation delay, in-process
//     control transports — used by the overlay experiments and tests.
package overlay

import (
	"errors"
	"math"
	"sort"
	"sync"

	"flexsfp/internal/apps"
	"flexsfp/internal/mgmt"
)

// Rendezvous is the mesh control-plane meeting point. It is safe for
// concurrent use: cable controllers register, withdraw, and poll from
// whatever goroutine their transport serves them on.
type Rendezvous struct {
	mu     sync.Mutex
	gen    uint64
	nextID int               // next unassigned peer id; > MaxUint16 when spent
	ids    map[string]uint16 // name → stable peer id, never reused
	peers  map[string]mgmt.OverlayEndpoint
}

// NewRendezvous returns an empty rendezvous at generation 0.
func NewRendezvous() *Rendezvous {
	return &Rendezvous{
		ids:   map[string]uint16{},
		peers: map[string]mgmt.OverlayEndpoint{},
	}
}

// errPeerIDsExhausted refuses a new name once every 16-bit peer ID has
// been handed out.
var errPeerIDsExhausted = errors.New("overlay: peer id space exhausted")

// Register adds or refreshes an endpoint and returns the new generation.
// The name keeps its stable ID across re-registrations (a rebooted cable
// comes back as the same peer). IDs are never reused, so after 65 536
// distinct names a new name is refused rather than handed a live peer's ID.
func (r *Rendezvous) Register(e mgmt.OverlayEndpoint) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.ids[e.Name]
	if !ok {
		if r.nextID > math.MaxUint16 {
			return r.gen, errPeerIDsExhausted
		}
		id = uint16(r.nextID)
		r.nextID++
		r.ids[e.Name] = id
	}
	e.ID = id
	r.peers[e.Name] = e
	r.gen++
	return r.gen, nil
}

// Withdraw removes an endpoint by name. Its prefixes fail over to their
// highest-priority surviving announcer in the next table. The second
// return is false when the name is not registered.
func (r *Rendezvous) Withdraw(name string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.peers[name]; !ok {
		return r.gen, false
	}
	delete(r.peers, name)
	r.gen++
	return r.gen, true
}

// Table computes the current mesh table. Peers are sorted by name and
// routes by prefix, and ownership ties break on (priority, name), so the
// result is a pure function of the registered set — every cable that
// syncs at one generation derives identical state, regardless of
// registration interleaving.
func (r *Rendezvous) Table() mgmt.OverlayTable {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := mgmt.OverlayTable{Generation: r.gen}
	for _, e := range r.peers {
		t.Peers = append(t.Peers, e)
	}
	sort.Slice(t.Peers, func(i, j int) bool { return t.Peers[i].Name < t.Peers[j].Name })

	// Ownership: for each announced prefix, the live announcer with the
	// lowest (priority, name) wins.
	type claim struct {
		prio uint8
		name string
		peer uint16
	}
	best := map[mgmt.OverlayPrefix]claim{}
	for _, e := range t.Peers {
		for _, p := range e.Prefixes {
			key := mgmt.OverlayPrefix{IP: p.IP, Len: p.Len} // identity sans priority
			c := claim{prio: p.Priority, name: e.Name, peer: e.ID}
			if cur, ok := best[key]; !ok || c.prio < cur.prio ||
				(c.prio == cur.prio && c.name < cur.name) {
				best[key] = c
			}
		}
	}
	for key, c := range best {
		t.Routes = append(t.Routes, mgmt.OverlayRoute{
			Prefix: mgmt.OverlayPrefix{IP: key.IP, Len: key.Len, Priority: c.prio},
			Peer:   c.peer,
		})
	}
	sort.Slice(t.Routes, func(i, j int) bool {
		a, b := t.Routes[i].Prefix, t.Routes[j].Prefix
		for k := range a.IP {
			if a.IP[k] != b.IP[k] {
				return a.IP[k] < b.IP[k]
			}
		}
		return a.Len < b.Len
	})
	return t
}

// Handle serves one encoded mgmt request — the rendezvous speaks the
// same TLV envelope as the cable agents, so it plugs straight into
// mgmt.NewServer and the in-process transports.
func (r *Rendezvous) Handle(req []byte) []byte {
	msg, err := mgmt.DecodeMessage(req)
	if err != nil {
		return mgmt.Message{Type: mgmt.MsgError,
			Body: mgmt.ErrorBody(mgmt.CodeBadBody, err.Error())}.Encode()
	}
	resp := r.dispatch(msg)
	resp.ReqID = msg.ReqID
	return resp.Encode()
}

func (r *Rendezvous) dispatch(msg mgmt.Message) mgmt.Message {
	errMsg := func(code uint16, text string) mgmt.Message {
		return mgmt.Message{Type: mgmt.MsgError, Body: mgmt.ErrorBody(code, text)}
	}
	ok := func(body []byte) mgmt.Message {
		return mgmt.Message{Type: mgmt.MsgOK, Body: body}
	}
	switch msg.Type {
	case mgmt.MsgPing:
		return ok(nil)
	case mgmt.MsgOverlayRegister:
		e, err := mgmt.DecodeOverlayRegister(msg.Body)
		if err != nil {
			return errMsg(mgmt.CodeBadBody, err.Error())
		}
		if e.Mode != apps.MeshModeGRE && e.Mode != apps.MeshModeVXLAN {
			return errMsg(mgmt.CodeBadBody, "overlay: unknown encap mode")
		}
		gen, err := r.Register(e)
		if err != nil {
			return errMsg(mgmt.CodeOpFailed, err.Error())
		}
		return ok(mgmt.EncodeOverlayGeneration(gen))
	case mgmt.MsgOverlayWithdraw:
		name, err := mgmt.DecodeOverlayWithdraw(msg.Body)
		if err != nil {
			return errMsg(mgmt.CodeBadBody, err.Error())
		}
		gen, found := r.Withdraw(name)
		if !found {
			return errMsg(mgmt.CodeNoSuchObject, "overlay: endpoint not registered: "+name)
		}
		return ok(mgmt.EncodeOverlayGeneration(gen))
	case mgmt.MsgOverlayPeers:
		return ok(mgmt.EncodeOverlayTable(r.Table()))
	}
	return errMsg(mgmt.CodeUnknownType, "overlay: rendezvous does not serve this op")
}
