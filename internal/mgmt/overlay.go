package mgmt

// Overlay rendezvous wire types. The rendezvous point (internal/overlay)
// speaks the same TLV envelope as the cable agents, so the PR 2 client —
// retries, deadlines, jittered backoff — is reused unchanged for the
// control plane of the mesh.

// OverlayPrefix is one announced IPv4 prefix. Priority orders ownership
// among announcers of the same prefix: 0 is the primary, higher values
// are backups that take over when the primary is withdrawn.
type OverlayPrefix struct {
	IP       [4]byte
	Len      uint8
	Priority uint8
}

// OverlayEndpoint is a cable's registration: its underlay tunnel
// endpoint (IP/MAC), receive-side encap parameters (what peers use when
// encapsulating toward it), and the prefixes it announces.
type OverlayEndpoint struct {
	Name string
	// ID is the stable peer id assigned by the rendezvous on first
	// registration of a name and never reused — routes reference it, and
	// controllers use it directly as the mesh_peers table key, so a
	// withdrawal never renumbers surviving peers (a slice index would).
	// Ignored in registration requests.
	ID       uint16
	IP       [4]byte
	MAC      [6]byte
	Mode     uint8 // apps.MeshModeGRE / apps.MeshModeVXLAN
	VNI      uint32
	GREKey   uint32
	Prefixes []OverlayPrefix
}

// OverlayRoute assigns a prefix to its current owner's stable peer ID.
type OverlayRoute struct {
	Prefix OverlayPrefix
	Peer   uint16
}

// OverlayTable is the MsgOverlayPeers response: the full mesh state at
// one generation. Generation increases on every register/withdraw, so a
// controller can cheaply detect staleness.
type OverlayTable struct {
	Generation uint64
	Peers      []OverlayEndpoint
	Routes     []OverlayRoute
}

// overlayMaxList bounds decoded list lengths (peers, routes, prefixes)
// so hostile bodies cannot force huge allocations.
const overlayMaxList = 4096

func writeOverlayPrefix(w *bodyWriter, p OverlayPrefix) {
	w.b = append(w.b, p.IP[:]...)
	w.u8(p.Len)
	w.u8(p.Priority)
}

func readOverlayPrefix(r *bodyReader) OverlayPrefix {
	var p OverlayPrefix
	for i := range p.IP {
		p.IP[i] = r.u8()
	}
	p.Len = r.u8()
	p.Priority = r.u8()
	if p.Len > 32 {
		r.fail()
	}
	return p
}

func writeOverlayEndpoint(w *bodyWriter, e OverlayEndpoint) {
	w.str(e.Name)
	w.u16(e.ID)
	w.b = append(w.b, e.IP[:]...)
	w.b = append(w.b, e.MAC[:]...)
	w.u8(e.Mode)
	w.u32(e.VNI)
	w.u32(e.GREKey)
	w.u16(uint16(len(e.Prefixes)))
	for _, p := range e.Prefixes {
		writeOverlayPrefix(w, p)
	}
}

func readOverlayEndpoint(r *bodyReader) OverlayEndpoint {
	var e OverlayEndpoint
	e.Name = r.str()
	e.ID = r.u16()
	for i := range e.IP {
		e.IP[i] = r.u8()
	}
	for i := range e.MAC {
		e.MAC[i] = r.u8()
	}
	e.Mode = r.u8()
	e.VNI = r.u32()
	e.GREKey = r.u32()
	n := int(r.u16())
	if n > overlayMaxList {
		r.fail()
		return e
	}
	for i := 0; i < n && r.err == nil; i++ {
		e.Prefixes = append(e.Prefixes, readOverlayPrefix(r))
	}
	return e
}

// EncodeOverlayRegister builds a MsgOverlayRegister request body.
func EncodeOverlayRegister(e OverlayEndpoint) []byte {
	var w bodyWriter
	writeOverlayEndpoint(&w, e)
	return w.b
}

// DecodeOverlayRegister parses a MsgOverlayRegister request body.
func DecodeOverlayRegister(body []byte) (OverlayEndpoint, error) {
	r := bodyReader{b: body}
	e := readOverlayEndpoint(&r)
	if r.err == nil && len(r.b) != 0 {
		r.err = ErrBadBody
	}
	if r.err == nil && e.Name == "" {
		r.err = ErrBadBody
	}
	return e, r.err
}

// EncodeOverlayGeneration builds the u64 generation body used by the
// register/withdraw replies.
func EncodeOverlayGeneration(gen uint64) []byte {
	var w bodyWriter
	w.u64(gen)
	return w.b
}

// DecodeOverlayGeneration parses a generation reply body.
func DecodeOverlayGeneration(body []byte) (uint64, error) {
	r := bodyReader{b: body}
	gen := r.u64()
	return gen, r.err
}

// EncodeOverlayWithdraw builds a MsgOverlayWithdraw request body.
func EncodeOverlayWithdraw(name string) []byte {
	var w bodyWriter
	w.str(name)
	return w.b
}

// DecodeOverlayWithdraw parses a MsgOverlayWithdraw request body.
func DecodeOverlayWithdraw(body []byte) (string, error) {
	r := bodyReader{b: body}
	name := r.str()
	if r.err == nil && name == "" {
		r.err = ErrBadBody
	}
	return name, r.err
}

// EncodeOverlayTable builds a MsgOverlayPeers response body.
func EncodeOverlayTable(t OverlayTable) []byte {
	var w bodyWriter
	w.u64(t.Generation)
	w.u16(uint16(len(t.Peers)))
	for _, e := range t.Peers {
		writeOverlayEndpoint(&w, e)
	}
	w.u16(uint16(len(t.Routes)))
	for _, rt := range t.Routes {
		writeOverlayPrefix(&w, rt.Prefix)
		w.u16(rt.Peer)
	}
	return w.b
}

// DecodeOverlayTable parses a MsgOverlayPeers response body.
func DecodeOverlayTable(body []byte) (OverlayTable, error) {
	r := bodyReader{b: body}
	var t OverlayTable
	t.Generation = r.u64()
	np := int(r.u16())
	if np > overlayMaxList {
		return t, ErrBadBody
	}
	ids := make(map[uint16]bool, np)
	for i := 0; i < np && r.err == nil; i++ {
		e := readOverlayEndpoint(&r)
		if ids[e.ID] {
			r.fail() // duplicate stable id
		}
		ids[e.ID] = true
		t.Peers = append(t.Peers, e)
	}
	nr := int(r.u16())
	if nr > overlayMaxList {
		return t, ErrBadBody
	}
	for i := 0; i < nr && r.err == nil; i++ {
		rt := OverlayRoute{Prefix: readOverlayPrefix(&r)}
		rt.Peer = r.u16()
		if r.err == nil && !ids[rt.Peer] {
			r.fail() // route to a peer absent from the table
		}
		t.Routes = append(t.Routes, rt)
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = ErrBadBody
	}
	return t, r.err
}

// ErrorBody encodes a MsgError body — exported so protocol servers
// outside this package (the overlay rendezvous) can reject requests with
// the standard error codes.
func ErrorBody(code uint16, text string) []byte { return errorBody(code, text) }

// OverlayRegister announces this cable's endpoint at the rendezvous and
// returns the resulting table generation.
func (c *Client) OverlayRegister(e OverlayEndpoint) (uint64, error) {
	body, err := c.do(MsgOverlayRegister, EncodeOverlayRegister(e))
	if err != nil {
		return 0, err
	}
	return DecodeOverlayGeneration(body)
}

// OverlayWithdraw removes an endpoint by name and returns the resulting
// table generation.
func (c *Client) OverlayWithdraw(name string) (uint64, error) {
	body, err := c.do(MsgOverlayWithdraw, EncodeOverlayWithdraw(name))
	if err != nil {
		return 0, err
	}
	return DecodeOverlayGeneration(body)
}

// OverlayPeers fetches the current mesh table.
func (c *Client) OverlayPeers() (OverlayTable, error) {
	body, err := c.do(MsgOverlayPeers, nil)
	if err != nil {
		return OverlayTable{}, err
	}
	return DecodeOverlayTable(body)
}
