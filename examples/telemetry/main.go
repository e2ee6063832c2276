// In-band telemetry: INT-style metadata insertion across a two-hop path
// (§3 "Monitoring and Observability"). Three FlexSFPs cooperate: a
// source pushes the telemetry shim and stamps the first hop, a transit
// module appends its hop, and a sink strips the shim, delivering the
// original frame to the host while exporting the per-hop path records —
// observability the legacy gear in between never had.
//
// The run fails, naming the claim, unless every frame arrives at its
// original size and every path shows three hops spaced by their fibers.
//
//	go run ./examples/telemetry
package main

import (
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/trafficgen"
)

const (
	tenGig   = 10_000_000_000
	frames   = 1000
	frameLen = 256
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("telemetry: ")
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run sends traffic along the instrumented path and returns an error
// naming the first claim the run broke.
func run(w io.Writer) error {
	sim := netsim.New(1)

	// Build the three-node path: source → transit → sink.
	roles := []struct {
		role string
		id   uint32
	}{
		{"source", 101}, {"transit", 102}, {"sink", 103},
	}
	var mods []*core.Module
	for _, r := range roles {
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name: "int-" + r.role, DeviceID: r.id,
			Shell: hls.TwoWayCore, App: "telemetry",
			Config: apps.TelemetryConfig{Role: r.role, DeviceID: r.id},
		})
		if err != nil {
			return fmt.Errorf("building the %s module: %w", r.role, err)
		}
		mods = append(mods, mod)
	}

	// Chain them with 10G fibers of different lengths (propagation
	// delays show up in the hop timestamps): source optical → transit
	// edge (500 m), transit optical → sink edge (2 km).
	fibers := []netsim.Duration{2500 * netsim.Nanosecond, 10 * netsim.Microsecond}
	for i, prop := range fibers {
		l := netsim.NewLink(sim, tenGig, prop, mods[i+1].RxEdge)
		mods[i].SetTx(core.PortOptical, func(b []byte) { l.Send(b) })
	}
	for _, m := range mods {
		m.SetTx(core.PortEdge, packet.PutBuffer)
	}

	// Receiving host behind the sink.
	var delivered, resized int
	mods[2].SetTx(core.PortOptical, func(b []byte) {
		delivered++
		if len(b) != frameLen {
			resized++
		}
		packet.PutBuffer(b)
	})

	// Send traffic into the source's edge.
	gen := trafficgen.New(sim, trafficgen.Config{
		PPS:    100_000,
		Sizes:  []trafficgen.IMIXEntry{{Size: frameLen, Weight: 1}},
		SrcMAC: packet.MustMAC("02:01:00:00:00:01"),
		DstMAC: packet.MustMAC("02:01:00:00:00:02"),
		SrcIP:  netip.MustParseAddr("10.0.0.1"),
		DstIP:  netip.MustParseAddr("10.0.0.2"),
		Flows:  4,
	}, func(b []byte) bool { mods[0].RxEdge(b); return true })
	gen.Run(frames)
	sim.RunFor(50 * netsim.Millisecond)

	fmt.Fprintf(w, "frames sent: %d, delivered to host: %d (%d not at the original %d bytes)\n",
		gen.Sent, delivered, resized, frameLen)

	// Collect the paths recorded at the sink via the app's export API.
	paths := mods[2].App().(interface{ Paths() []apps.PathRecord }).Paths()
	fmt.Fprintf(w, "paths collected at sink: %d\n", len(paths))
	if len(paths) > 0 {
		p := paths[0]
		fmt.Fprintln(w, "\nFirst recorded path:")
		for i, h := range p.Hops {
			delta := ""
			if i > 0 {
				delta = fmt.Sprintf("  (+%d ns)", h.TimestampNs-p.Hops[i-1].TimestampNs)
			}
			fmt.Fprintf(w, "  hop %d: device %d  t=%d ns%s\n", i, h.DeviceID, h.TimestampNs, delta)
		}
		total := p.Hops[len(p.Hops)-1].TimestampNs - p.Hops[0].TimestampNs
		fmt.Fprintf(w, "  end-to-end (source→sink PPE): %d ns\n", total)
	}

	if gen.Sent != frames || delivered != frames || resized != 0 {
		return fmt.Errorf("sent %d, delivered %d with %d resized; want all %d delivered at %d bytes",
			gen.Sent, delivered, resized, frames, frameLen)
	}
	if len(paths) != frames {
		return fmt.Errorf("sink collected %d paths, want one per frame (%d)", len(paths), frames)
	}
	for n, p := range paths {
		if len(p.Hops) != len(roles) {
			return fmt.Errorf("path %d has %d hops, want %d", n, len(p.Hops), len(roles))
		}
		for i, h := range p.Hops {
			if h.DeviceID != roles[i].id {
				return fmt.Errorf("path %d hop %d is device %d, want %d", n, i, h.DeviceID, roles[i].id)
			}
			if i == 0 {
				continue
			}
			// A hop is stamped no sooner than the frame crossed the fiber
			// from the hop before it, so timestamps rise along the path.
			prev := p.Hops[i-1].TimestampNs
			if h.TimestampNs < prev+uint64(fibers[i-1]) {
				return fmt.Errorf("path %d hop %d is %d ns after hop %d, want at least the %v fiber",
					n, i, int64(h.TimestampNs-prev), i-1, fibers[i-1])
			}
		}
	}
	return nil
}
