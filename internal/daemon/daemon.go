// Package daemon hosts the flexsfpd runtime as an embeddable component:
// a simulated FlexSFP module with its management agent served over a real
// TCP port and, optionally, an expvar-style HTTP endpoint exposing the
// telemetry snapshot. cmd/flexsfpd is a thin flag wrapper around Start;
// tests boot the same daemon in-process on a loopback port.
package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/overlay"
	"flexsfp/internal/packet"
	"flexsfp/internal/telemetry"
	"flexsfp/internal/trafficgen"
)

// Config selects what to boot and where to listen.
type Config struct {
	Listen     string // management TCP address ("127.0.0.1:0" for tests)
	Name       string
	DeviceID   uint32
	App        string
	Shell      string // one-way-filter, two-way-core, active-core
	ConfigJSON string // inline application config, "" for app defaults
	AuthKey    []byte // fleet HMAC key; nil selects the development key
	TrafficPPS float64
	Seed       int64

	// SimShards is the number of event heaps the daemon's world runs on
	// (0 means 1). The module is partition 0 and the traffic source
	// partition 1, joined by a simulated 10G wire whose propagation delay
	// is the conservative lookahead; at 2 or more shards they run on
	// different heaps. The world is the same at any shard count.
	SimShards int

	// Telemetry enables the metric registry, packet tracer, and the
	// mgmt-protocol telemetry ops.
	Telemetry  bool
	TraceEvery int // sample 1-in-N frames (0 = trace every frame)
	TraceRing  int // trace ring capacity (0 = default 4096)

	// MetricsAddr, when non-empty, serves the JSON snapshot over HTTP
	// (GET /metrics, GET /traces). Requires Telemetry.
	MetricsAddr string

	// Overlay, when non-nil, hosts an overlay rendezvous and/or joins
	// the daemon to a mesh fabric as a tunnel endpoint (see OverlayConfig).
	Overlay *OverlayConfig

	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Daemon is a running module plus its management server.
type Daemon struct {
	Design *hls.Design

	cfg   Config
	world *netsim.Sharded
	mod   *core.Module
	reg   *telemetry.Registry
	srv   *mgmt.Server
	addr  string

	httpLn   net.Listener
	httpSrv  *http.Server
	httpDone chan struct{} // closed when the HTTP serve loop exits

	// Overlay mesh state (all nil/zero unless cfg.Overlay is set).
	rdv     *overlay.Rendezvous
	rdvSrv  *mgmt.Server
	rdvAddr string
	ovl     *overlay.Controller
	ovlConn *mgmt.TCPTransport // non-nil when joined over TCP
	ovlMu   sync.Mutex         // serializes OverlaySync calls
	ovlStop chan struct{}      // non-nil when the periodic sync loop runs
	ovlDone chan struct{}
	// Last-sync stats mirrored under d.mu for the telemetry gauge funcs.
	ovlGen    uint64
	ovlPeers  int
	ovlRoutes int

	// mu serializes all access to the single-threaded simulator: mgmt
	// handlers, HTTP snapshot reads, and the traffic pre-run.
	mu sync.Mutex
}

// Start boots the module and begins serving. Callers own the returned
// daemon and must Close it.
func Start(cfg Config) (*Daemon, error) {
	shell, err := ParseShell(cfg.Shell)
	if err != nil {
		return nil, err
	}
	if cfg.AuthKey == nil {
		cfg.AuthKey = build.DefaultAuthKey
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	world := netsim.NewSharded(cfg.Seed, max(cfg.SimShards, 1))
	sim := world.Shard(0)
	if cfg.Overlay != nil && cfg.Overlay.IP != "" && cfg.App == "mesh" && cfg.ConfigJSON == "" {
		// An overlay endpoint with no explicit app config encapsulates
		// with exactly the parameters it registers.
		js, err := cfg.Overlay.meshConfigJSON(cfg.DeviceID)
		if err != nil {
			return nil, err
		}
		cfg.ConfigJSON = js
	}
	var appCfg any
	if cfg.ConfigJSON != "" {
		appCfg = json.RawMessage(cfg.ConfigJSON)
	}
	mod, design, err := build.Module(sim, build.ModuleSpec{
		Name: cfg.Name, DeviceID: cfg.DeviceID, Shell: shell,
		App: cfg.App, Config: appCfg, AuthKey: cfg.AuthKey,
	})
	if err != nil {
		return nil, fmt.Errorf("building module: %w", err)
	}
	// Sink both data ports (standalone module on the bench).
	mod.SetTx(core.PortEdge, packet.PutBuffer)
	mod.SetTx(core.PortOptical, packet.PutBuffer)

	d := &Daemon{Design: design, cfg: cfg, world: world, mod: mod}
	agent := mgmt.NewAgent(mod)

	var tracer *telemetry.Tracer
	if cfg.Telemetry {
		every := cfg.TraceEvery
		if every == 0 {
			every = 1
		}
		ring := cfg.TraceRing
		if ring == 0 {
			ring = 4096
		}
		d.reg = telemetry.New()
		tracer = telemetry.NewTracer(every, ring)
		d.reg.SetTracer(tracer)
		mod.AttachTelemetry(d.reg)
		sim.AttachTelemetry(d.reg, "sim")
		world.AttachTelemetry(d.reg, "pdes")
		agent.SetTelemetry(d.reg)
	}

	handler := func(req []byte) []byte {
		d.mu.Lock()
		defer d.mu.Unlock()
		resp := agent.Handle(req)
		d.world.Run()
		return resp
	}

	if cfg.TrafficPPS > 0 {
		d.mu.Lock()
		// The generator is partition 1 and reaches the module over a 10G
		// wire; the wire's 5 ns propagation delay is the conservative
		// lookahead. The generator draws from its partition stream so the
		// workload is identical at any SimShards value.
		src := world.ShardFor(1)
		wire := world.ConnectLink(src, 0, 10_000_000_000, 5*netsim.Nanosecond, mod.RxEdge)
		gen := trafficgen.New(world.Shard(src), trafficgen.Config{
			PPS: cfg.TrafficPPS, Flows: 64, Rand: world.Stream(1),
		}, func(b []byte) bool { return wire.Send(b) })
		if tracer != nil {
			gen.SetTracer(tracer)
		}
		world.AlignClocks()
		gen.Run(uint64(cfg.TrafficPPS)) // one second of traffic
		world.RunFor(netsim.Second)
		gen.Stop()
		world.Run()
		d.mu.Unlock()
		logf("pre-ran %.0f pps of traffic for 1s of simulated time", cfg.TrafficPPS)
	}

	d.srv = mgmt.NewServer(handler)
	addr, err := d.srv.Listen(cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.addr = addr

	if cfg.MetricsAddr != "" {
		if d.reg == nil {
			d.srv.Close()
			return nil, fmt.Errorf("metrics endpoint requires telemetry")
		}
		if err := d.serveMetrics(cfg.MetricsAddr); err != nil {
			d.srv.Close()
			return nil, err
		}
		logf("metrics on http://%s/metrics", d.MetricsAddr())
	}
	if err := d.startOverlay(handler, logf); err != nil {
		d.Close()
		return nil, err
	}
	logf("management listening on %s", addr)
	return d, nil
}

// Addr is the management listener's resolved address.
func (d *Daemon) Addr() string { return d.addr }

// MetricsAddr is the HTTP metrics listener's resolved address, or "" when
// the endpoint is disabled.
func (d *Daemon) MetricsAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

// Close stops both listeners. The metrics server is shut down
// gracefully — in-flight snapshot requests get up to closeGrace to
// finish, then the server is torn down hard — and Close returns only
// after the HTTP serve goroutine has exited, so tests can assert no
// goroutine leaks.
func (d *Daemon) Close() error {
	d.closeOverlay()
	if d.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
		if err := d.httpSrv.Shutdown(ctx); err != nil {
			// Grace expired with requests still in flight: drop them.
			d.httpSrv.Close()
		}
		cancel()
		<-d.httpDone
	}
	return d.srv.Close()
}

// closeGrace bounds how long Close waits for in-flight metrics requests.
const closeGrace = 2 * time.Second

func (d *Daemon) serveMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// GaugeFuncs read live module state, so snapshot under the same
		// lock that serializes simulator access.
		d.mu.Lock()
		snap := d.reg.Snapshot()
		d.mu.Unlock()
		b, err := snap.MarshalJSONIndent()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		var evs []telemetry.TraceEvent
		if tr := d.reg.Tracer(); tr != nil {
			evs = tr.Events()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(evs)
	})
	d.httpLn = ln
	d.httpSrv = &http.Server{Handler: mux}
	d.httpDone = make(chan struct{})
	go func() {
		defer close(d.httpDone)
		d.httpSrv.Serve(ln)
	}()
	return nil
}

// ParseShell maps the CLI shell name to its hls constant.
func ParseShell(s string) (hls.Shell, error) {
	switch s {
	case "one-way-filter":
		return hls.OneWayFilter, nil
	case "two-way-core":
		return hls.TwoWayCore, nil
	case "active-core":
		return hls.ActiveCore, nil
	default:
		return 0, fmt.Errorf("unknown shell %q", s)
	}
}
