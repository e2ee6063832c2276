// Command flexsfpd runs a simulated FlexSFP module with its management
// core exposed on a real TCP port — the out-of-band control interface of
// §4.1. Pair it with flexsfp-ctl to read tables, counters, and live
// telemetry, push signed bitstreams, and reboot the module, exactly the
// workflow a fleet orchestrator would drive.
//
// Usage:
//
//	flexsfpd -listen 127.0.0.1:9461 -app nat -shell two-way-core \
//	         -config '{"mappings":[{"internal":"10.1.0.1","external":"203.0.113.1"}]}' \
//	         -metrics-addr 127.0.0.1:9462
//
// The daemon optionally self-generates traffic (-traffic-pps) so that
// counters, traces, and DDM readings move. With -metrics-addr set it also
// serves the telemetry snapshot as JSON over HTTP (GET /metrics) and the
// packet-trace ring (GET /traces).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flexsfp/internal/build"
	"flexsfp/internal/daemon"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:9461", "management TCP listen address")
		name        = flag.String("name", "flexsfp-0", "module name")
		deviceID    = flag.Uint("device-id", 1, "fleet device ID")
		appName     = flag.String("app", "nat", "application to boot")
		shellName   = flag.String("shell", "two-way-core", "architecture shell (one-way-filter, two-way-core, active-core)")
		configJSON  = flag.String("config", "", "application config JSON (inline)")
		authKey     = flag.String("key", string(build.DefaultAuthKey), "fleet HMAC key for OTA pushes")
		trafficPPS  = flag.Float64("traffic-pps", 0, "self-generated traffic rate (0 = none)")
		seed        = flag.Int64("seed", 1, "simulation seed")
		tel         = flag.Bool("telemetry", true, "enable metric registry and packet tracing")
		traceEvery  = flag.Int("trace-every", 64, "sample 1-in-N frames for tracing")
		metricsAddr = flag.String("metrics-addr", "", "HTTP address for the JSON metrics endpoint (empty = off)")
		simShards   = flag.Int("sim-shards", 0, "run the world on N parallel simulation shards (module + traffic source; 0 = 1 shard; output is the same at any N)")

		ovlListen = flag.String("overlay-listen", "", "host an overlay rendezvous on this TCP address (empty = off)")
		ovlJoin   = flag.String("overlay-join", "", "overlay rendezvous address to register with (empty with -overlay-listen = join in-process)")
		ovlIP     = flag.String("overlay-ip", "", "underlay tunnel IPv4 announced to the mesh (empty = not an endpoint; requires -app mesh)")
		ovlMAC    = flag.String("overlay-mac", "", "underlay MAC (empty = derived from -device-id)")
		ovlMode   = flag.String("overlay-mode", "gre", "mesh encapsulation peers use toward this cable (gre, vxlan)")
		ovlVNI    = flag.Uint("overlay-vni", 0, "VXLAN network identifier for this endpoint")
		ovlGREKey = flag.Uint("overlay-gre-key", 0, "GRE key for this endpoint")
		ovlPfx    = flag.String("overlay-prefixes", "", "comma-separated announced IPv4 prefixes; \"@N\" suffix sets backup priority (e.g. 10.200.1.0/24,10.200.3.0/24@1)")
		ovlSync   = flag.Duration("overlay-sync", time.Second, "re-reconcile against the rendezvous this often (0 = only at startup)")
	)
	flag.Parse()

	var ovl *daemon.OverlayConfig
	if *ovlListen != "" || *ovlJoin != "" || *ovlIP != "" {
		ovl = &daemon.OverlayConfig{
			Listen: *ovlListen, Join: *ovlJoin, IP: *ovlIP, MAC: *ovlMAC,
			Mode: *ovlMode, VNI: uint32(*ovlVNI), GREKey: uint32(*ovlGREKey),
			SyncEvery: *ovlSync,
		}
		if *ovlPfx != "" {
			ovl.Prefixes = strings.Split(*ovlPfx, ",")
		}
	}

	d, err := daemon.Start(daemon.Config{
		Listen: *listen, Name: *name, DeviceID: uint32(*deviceID),
		App: *appName, Shell: *shellName, ConfigJSON: *configJSON,
		AuthKey: []byte(*authKey), TrafficPPS: *trafficPPS, Seed: *seed,
		Telemetry: *tel, TraceEvery: *traceEvery, MetricsAddr: *metricsAddr,
		SimShards: *simShards, Overlay: ovl,
		Logf: func(format string, args ...any) { log.Printf("flexsfpd: "+format, args...) },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	fmt.Printf("flexsfpd: module %q (device %d) app=%s shell=%s device=%s\n",
		*name, *deviceID, *appName, *shellName, d.Design.Target.Name)
	fmt.Printf("flexsfpd: design %d LUT4 / %d FF / %d uSRAM / %d LSRAM (%s-limited, %.1f%% peak)\n",
		d.Design.Total.LUT4, d.Design.Total.FF, d.Design.Total.USRAM, d.Design.Total.LSRAM,
		d.Design.Fit.Limiting, d.Design.Fit.Utilization.Max())
	fmt.Printf("flexsfpd: management listening on %s\n", d.Addr())
	if a := d.MetricsAddr(); a != "" {
		fmt.Printf("flexsfpd: metrics on http://%s/metrics\n", a)
	}
	if a := d.RendezvousAddr(); a != "" {
		fmt.Printf("flexsfpd: overlay rendezvous on %s\n", a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("flexsfpd: shutting down")
}
