// Package apps implements the paper's use-case catalog (§3) against the
// PPE programming model: the §5.1 NAT case study, per-port firewalling,
// VLAN/QinQ tagging, GRE/VXLAN/IP-in-IP tunneling, Katran-style L4 load
// balancing, INT-style in-band telemetry, NetFlow-like flow accounting,
// per-source rate limiting, DNS/DoH filtering, packet sanitization, and
// the edge-protocol trio (ARP-spoof guard, DHCP snooping, DNS blocking).
//
// Each application is a core.App: a declarative ppe.Program (from which
// the HLS estimator prices the design) plus a behavioral handler that
// mutates raw frames in place, the way the synthesized pipeline would.
//
// All header access goes through the shared packet.View — the software
// model of the hardware parser stage — so every app reads the same
// offsets the traffic generator and the XDP datapath do. No app runs the
// layered decoder.
package apps

import (
	"flexsfp/internal/core"
	"flexsfp/internal/ppe"
)

// dirEnabled reports whether a packet traveling d should be processed
// under an app's configured direction filter ("both" by default).
func dirEnabled(cfg string, d ppe.Direction) bool {
	switch cfg {
	case "edge-to-optical":
		return d == ppe.DirEdgeToOptical
	case "optical-to-edge":
		return d == ppe.DirOpticalToEdge
	default:
		return true
	}
}

// All apps implement core.App.
var _ core.App = (*natApp)(nil)
