package overlay

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/mgmt"
)

func testEndpoint(i int) mgmt.OverlayEndpoint {
	mode := apps.MeshModeGRE
	if i%2 == 1 {
		mode = apps.MeshModeVXLAN
	}
	return mgmt.OverlayEndpoint{
		Name: fmt.Sprintf("cable-%d", i),
		IP:   CableIP(i), MAC: CableMAC(i), Mode: mode,
		VNI: 4000 + uint32(i+1), GREKey: 700 + uint32(i+1),
		Prefixes: []mgmt.OverlayPrefix{DefaultPrefix(i)},
	}
}

// The table is a pure function of the registered set: two rendezvous
// fed the same endpoints in different orders produce identical tables.
func TestRendezvousTableOrderIndependent(t *testing.T) {
	a, b := NewRendezvous(), NewRendezvous()
	for i := 0; i < 4; i++ {
		a.Register(testEndpoint(i))
	}
	for i := 3; i >= 0; i-- {
		b.Register(testEndpoint(i))
	}
	ta, tb := a.Table(), b.Table()
	// Stable IDs follow registration order, so normalize them away: what
	// must agree is names, prefixes, and name-level route ownership.
	type route struct {
		prefix mgmt.OverlayPrefix
		owner  string
	}
	norm := func(tab mgmt.OverlayTable) (names []string, routes []route) {
		byID := map[uint16]string{}
		for _, p := range tab.Peers {
			names = append(names, p.Name)
			byID[p.ID] = p.Name
		}
		for _, r := range tab.Routes {
			routes = append(routes, route{r.Prefix, byID[r.Peer]})
		}
		return
	}
	an, ar := norm(ta)
	bn, br := norm(tb)
	if !reflect.DeepEqual(an, bn) || !reflect.DeepEqual(ar, br) {
		t.Fatalf("order-dependent table:\n a: %v %v\n b: %v %v", an, ar, bn, br)
	}
	if ta.Generation != 4 || tb.Generation != 4 {
		t.Fatalf("generations = %d, %d, want 4", ta.Generation, tb.Generation)
	}
}

// Stable IDs: a name keeps its ID across withdraw/re-register, and IDs
// are never reused for new names.
func TestRendezvousStableIDs(t *testing.T) {
	r := NewRendezvous()
	r.Register(testEndpoint(0))
	r.Register(testEndpoint(1))
	id1 := r.Table().Peers[1].ID
	if _, ok := r.Withdraw("cable-1"); !ok {
		t.Fatal("withdraw of live endpoint failed")
	}
	r.Register(testEndpoint(2))
	r.Register(testEndpoint(1))
	tab := r.Table()
	ids := map[string]uint16{}
	for _, p := range tab.Peers {
		ids[p.Name] = p.ID
	}
	if ids["cable-1"] != id1 {
		t.Fatalf("cable-1 renumbered: %d -> %d", id1, ids["cable-1"])
	}
	if ids["cable-2"] == id1 || ids["cable-2"] == ids["cable-0"] {
		t.Fatalf("id reuse: %v", ids)
	}
}

// Route ownership walks the re-route state machine: primary-owned →
// backup-owned on withdrawal → back on re-registration → unrouted when
// every announcer is gone.
func TestRendezvousFailover(t *testing.T) {
	r := NewRendezvous()
	primary := testEndpoint(0)
	backup := testEndpoint(1)
	shared := mgmt.OverlayPrefix{IP: [4]byte{10, 200, 1, 0}, Len: 24}
	primary.Prefixes = []mgmt.OverlayPrefix{shared}
	backup.Prefixes = []mgmt.OverlayPrefix{{IP: shared.IP, Len: 24, Priority: 1}}
	r.Register(primary)
	r.Register(backup)

	owner := func() (string, bool) {
		tab := r.Table()
		for _, rt := range tab.Routes {
			if rt.Prefix.IP == shared.IP {
				for _, p := range tab.Peers {
					if p.ID == rt.Peer {
						return p.Name, true
					}
				}
			}
		}
		return "", false
	}
	if o, ok := owner(); !ok || o != "cable-0" {
		t.Fatalf("initial owner = %q, %v, want primary cable-0", o, ok)
	}
	r.Withdraw("cable-0")
	if o, ok := owner(); !ok || o != "cable-1" {
		t.Fatalf("post-withdraw owner = %q, %v, want backup cable-1", o, ok)
	}
	r.Register(primary)
	if o, ok := owner(); !ok || o != "cable-0" {
		t.Fatalf("post-recovery owner = %q, %v, want cable-0 again", o, ok)
	}
	r.Withdraw("cable-0")
	r.Withdraw("cable-1")
	if _, ok := owner(); ok {
		t.Fatal("prefix still routed with no announcers")
	}
}

// The rendezvous speaks well-formed protocol for every request shape.
func TestRendezvousHandleProtocol(t *testing.T) {
	r := NewRendezvous()
	roundTrip := func(t *testing.T, req []byte) mgmt.Message {
		t.Helper()
		resp, err := mgmt.DecodeMessage(r.Handle(req))
		if err != nil {
			t.Fatalf("undecodable response: %v", err)
		}
		return resp
	}
	expectErr := func(t *testing.T, req []byte, code uint16) {
		t.Helper()
		resp := roundTrip(t, req)
		if resp.Type != mgmt.MsgError {
			t.Fatalf("response type = %d, want MsgError", resp.Type)
		}
		got, _, err := mgmt.ParseError(resp.Body)
		if err != nil || got != code {
			t.Fatalf("error code = %d (%v), want %d", got, err, code)
		}
	}

	expectErr(t, []byte("garbage"), mgmt.CodeBadBody)
	expectErr(t, mgmt.Message{Type: mgmt.MsgStats, ReqID: 1}.Encode(), mgmt.CodeUnknownType)
	expectErr(t, mgmt.Message{Type: mgmt.MsgOverlayRegister, ReqID: 2, Body: []byte{0}}.Encode(), mgmt.CodeBadBody)
	badMode := testEndpoint(0)
	badMode.Mode = 9
	expectErr(t, mgmt.Message{Type: mgmt.MsgOverlayRegister, ReqID: 3,
		Body: mgmt.EncodeOverlayRegister(badMode)}.Encode(), mgmt.CodeBadBody)
	expectErr(t, mgmt.Message{Type: mgmt.MsgOverlayWithdraw, ReqID: 4,
		Body: mgmt.EncodeOverlayWithdraw("nobody")}.Encode(), mgmt.CodeNoSuchObject)

	if resp := roundTrip(t, mgmt.Message{Type: mgmt.MsgPing, ReqID: 5}.Encode()); resp.Type != mgmt.MsgOK || resp.ReqID != 5 {
		t.Fatalf("ping response = %+v", resp)
	}

	// Full client round trip over the Handle transport.
	c := mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
		return r.Handle(req), nil
	}))
	if gen, err := c.OverlayRegister(testEndpoint(0)); err != nil || gen != 1 {
		t.Fatalf("register via client: gen %d, %v", gen, err)
	}
	tab, err := c.OverlayPeers()
	if err != nil || len(tab.Peers) != 1 || tab.Peers[0].Name != "cable-0" {
		t.Fatalf("peers via client: %+v, %v", tab, err)
	}
	if gen, err := c.OverlayWithdraw("cable-0"); err != nil || gen != 2 {
		t.Fatalf("withdraw via client: gen %d, %v", gen, err)
	}
}

// Rendezvous churn under -race: concurrent register/withdraw/poll from
// many goroutines must be data-race-free, and the final table must equal
// the final registered set exactly.
func TestRendezvousChurnRace(t *testing.T) {
	r := NewRendezvous()
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := mgmt.NewClient(mgmt.TransportFunc(func(req []byte) ([]byte, error) {
				return r.Handle(req), nil
			}))
			e := testEndpoint(w)
			for i := 0; i < rounds; i++ {
				switch i % 3 {
				case 0:
					if _, err := c.OverlayRegister(e); err != nil {
						t.Errorf("register: %v", err)
						return
					}
				case 1:
					if _, err := c.OverlayPeers(); err != nil {
						t.Errorf("peers: %v", err)
						return
					}
				case 2:
					// May race with our own re-registration cycle only;
					// NoSuchObject is the one legal failure.
					if _, err := c.OverlayWithdraw(e.Name); err != nil {
						var re *mgmt.RemoteError
						if !errors.As(err, &re) || re.Code != mgmt.CodeNoSuchObject {
							t.Errorf("withdraw: %v", err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Settle into a known final state and verify it exactly.
	for w := 0; w < workers; w++ {
		r.Withdraw(fmt.Sprintf("cable-%d", w))
	}
	for w := 0; w < 3; w++ {
		r.Register(testEndpoint(w))
	}
	tab := r.Table()
	if len(tab.Peers) != 3 || len(tab.Routes) != 3 {
		t.Fatalf("final table: %d peers, %d routes, want 3 and 3", len(tab.Peers), len(tab.Routes))
	}
	for i, p := range tab.Peers {
		if want := fmt.Sprintf("cable-%d", i); p.Name != want {
			t.Fatalf("peer %d = %q, want %q", i, p.Name, want)
		}
	}
}

// The 16-bit peer ID space is spent after 65 536 distinct names: the next
// new name is refused (it would otherwise wrap onto the first name's live
// ID), while known names still re-register under their own IDs.
func TestRendezvousPeerIDsExhausted(t *testing.T) {
	r := NewRendezvous()
	const ids = 1 << 16
	for i := 0; i < ids; i++ {
		if _, err := r.Register(mgmt.OverlayEndpoint{Name: fmt.Sprintf("n%d", i)}); err != nil {
			t.Fatalf("name %d of %d refused: %v", i+1, ids, err)
		}
	}
	gen := r.gen
	if _, err := r.Register(mgmt.OverlayEndpoint{Name: "one-too-many"}); err == nil {
		t.Fatal("65 537th distinct name was handed an ID")
	}
	if r.gen != gen {
		t.Error("refused registration bumped the generation")
	}
	if _, err := r.Register(mgmt.OverlayEndpoint{Name: "n0"}); err != nil {
		t.Errorf("re-registering a known name failed: %v", err)
	}
	seen := make(map[uint16]string, ids)
	for _, p := range r.Table().Peers {
		if other, dup := seen[p.ID]; dup {
			t.Fatalf("%s and %s share peer id %d", other, p.Name, p.ID)
		}
		seen[p.ID] = p.Name
	}
	if len(seen) != ids {
		t.Errorf("%d live peers, want %d", len(seen), ids)
	}

	e := testEndpoint(0)
	e.Name = "one-too-many"
	resp, err := mgmt.DecodeMessage(r.Handle(mgmt.Message{Type: mgmt.MsgOverlayRegister, ReqID: 1,
		Body: mgmt.EncodeOverlayRegister(e)}.Encode()))
	if err != nil || resp.Type != mgmt.MsgError {
		t.Fatalf("Handle response = %+v (%v), want MsgError", resp, err)
	}
	if code, _, err := mgmt.ParseError(resp.Body); err != nil || code != mgmt.CodeOpFailed {
		t.Errorf("error code = %d (%v), want CodeOpFailed", code, err)
	}
}
