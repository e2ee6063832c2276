package overlay

import (
	"bytes"
	"fmt"
	"sort"

	"flexsfp/internal/apps"
	"flexsfp/internal/mgmt"
)

// Controller drives one cable's membership in the mesh: it registers the
// cable's endpoint at the rendezvous and reconciles the cable's
// mesh_routes / mesh_peers PPE tables against the fabric table. Both
// sides are reached through mgmt.Client, so retries, deadlines, and
// backoff come from the standard control-plane plumbing whether the
// transport is in-process, in-band, or TCP.
type Controller struct {
	self  mgmt.OverlayEndpoint
	rdv   *mgmt.Client
	cable *mgmt.Client
}

// NewController binds an endpoint description to its rendezvous and
// cable clients. self.ID is ignored; the rendezvous assigns it.
func NewController(self mgmt.OverlayEndpoint, rdv, cable *mgmt.Client) *Controller {
	return &Controller{self: self, rdv: rdv, cable: cable}
}

// Register announces the endpoint at the rendezvous.
func (c *Controller) Register() (uint64, error) {
	return c.rdv.OverlayRegister(c.self)
}

// Withdraw removes an endpoint (usually another cable's, on behalf of a
// health monitor that saw its DDM trend collapse) from the rendezvous.
func (c *Controller) Withdraw(name string) (uint64, error) {
	return c.rdv.OverlayWithdraw(name)
}

// Sync fetches the fabric table and reconciles the cable's datapath
// tables to it. Operations are ordered so every intermediate state fails
// safe: stale routes are removed before the peers they point at, and
// peers are installed before the routes that need them. A frame arriving
// mid-sync is either passed untouched (no route yet) or dropped and
// counted MeshNoPeer — never delivered to a withdrawn peer.
func (c *Controller) Sync() (mgmt.OverlayTable, error) {
	t, err := c.rdv.OverlayPeers()
	if err != nil {
		return mgmt.OverlayTable{}, err
	}
	selfID, selfLive := uint16(0), false
	for _, p := range t.Peers {
		if p.Name == c.self.Name {
			selfID, selfLive = p.ID, true
			break
		}
	}

	wantPeers := map[string][]byte{}
	for _, p := range t.Peers {
		if p.Name == c.self.Name {
			continue
		}
		key := apps.MeshPeerKey(p.ID)
		val := apps.MeshPeer{Mode: p.Mode, IP: p.IP, MAC: p.MAC, VNI: p.VNI, GREKey: p.GREKey}.Encode()
		wantPeers[string(key[:])] = val[:]
	}
	wantRoutes := map[string][]byte{}
	for _, rt := range t.Routes {
		if selfLive && rt.Peer == selfID {
			continue // locally-owned prefix: deliver on our own edge
		}
		if rt.Prefix.Len != 24 {
			continue // the datapath routes at /24 granularity (MeshRouteKey)
		}
		key := apps.MeshRouteKey(rt.Prefix.IP)
		val := apps.MeshRouteValue(rt.Peer)
		wantRoutes[string(key[:])] = val[:]
	}

	curRoutes, err := c.dump(apps.MeshRouteTable)
	if err != nil {
		return mgmt.OverlayTable{}, err
	}
	curPeers, err := c.dump(apps.MeshPeerTable)
	if err != nil {
		return mgmt.OverlayTable{}, err
	}

	// 1. Remove routes that no longer exist (withdrawn prefixes).
	for _, key := range staleKeys(curRoutes, wantRoutes) {
		if err := c.cable.TableDel(apps.MeshRouteTable, []byte(key)); err != nil {
			return mgmt.OverlayTable{}, fmt.Errorf("overlay: del route: %w", err)
		}
	}
	// 2. Remove peers that left the fabric.
	for _, key := range staleKeys(curPeers, wantPeers) {
		if err := c.cable.TableDel(apps.MeshPeerTable, []byte(key)); err != nil {
			return mgmt.OverlayTable{}, fmt.Errorf("overlay: del peer: %w", err)
		}
	}
	// 3. Install or update peers (TableAdd replaces in place).
	for _, key := range changedKeys(curPeers, wantPeers) {
		if err := c.cable.TableAdd(apps.MeshPeerTable, []byte(key), wantPeers[key]); err != nil {
			return mgmt.OverlayTable{}, fmt.Errorf("overlay: add peer: %w", err)
		}
	}
	// 4. Install or repoint routes — their peers are present by now.
	for _, key := range changedKeys(curRoutes, wantRoutes) {
		if err := c.cable.TableAdd(apps.MeshRouteTable, []byte(key), wantRoutes[key]); err != nil {
			return mgmt.OverlayTable{}, fmt.Errorf("overlay: add route: %w", err)
		}
	}

	return t, nil
}

// dump reads one cable table into a key → value map.
func (c *Controller) dump(table string) (map[string][]byte, error) {
	entries, err := c.cable.TableDump(table)
	if err != nil {
		return nil, fmt.Errorf("overlay: dump %s: %w", table, err)
	}
	cur := make(map[string][]byte, len(entries))
	for _, e := range entries {
		cur[string(e.Key)] = e.Value
	}
	return cur, nil
}

// staleKeys lists keys present in cur but absent from want, sorted so
// the op sequence is deterministic.
func staleKeys(cur, want map[string][]byte) []string {
	var keys []string
	for k := range cur {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// changedKeys lists keys whose want value is absent from or different in
// cur, sorted. Unchanged entries are skipped entirely so a no-op sync
// leaves the table generation — and the datapath's cached encap state —
// untouched.
func changedKeys(cur, want map[string][]byte) []string {
	var keys []string
	for k, v := range want {
		if old, ok := cur[k]; !ok || !bytes.Equal(old, v) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
