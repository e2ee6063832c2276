// Package build compiles a catalog application into a signed bitstream
// and boots it on a freshly provisioned module: the one way to build a
// cable, shared by the experiment harness (internal/exp), the daemons,
// the examples and the cross-package tests.
package build

import (
	"encoding/json"
	"fmt"

	"flexsfp/internal/apps"
	"flexsfp/internal/core"
	"flexsfp/internal/fpga"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/opt"
)

// Baseline operating point of the prototype (§5.1).
const (
	BaseClockHz      = 156_250_000
	BaseDatapathBits = 64
)

// DefaultAuthKey is the development fleet key used when none is given.
var DefaultAuthKey = []byte("flexsfp-dev-fleet-key")

// ModuleSpec describes a module to build and boot in one call.
type ModuleSpec struct {
	Name     string
	DeviceID uint32
	Shell    hls.Shell
	// App is a name registered by apps.NewRegistry ("nat", "acl",
	// "vlan", "tunnel", "lb", "telemetry", "netflow", "ratelimit",
	// "dohblock", "sanitize", "monitor", "xdp", "arpguard", "dhcpsnoop",
	// "dnsblock", "mesh").
	App string
	// Config is the app's config struct (JSON-marshaled into the
	// bitstream manifest) or nil.
	Config any
	// AuthKey authenticates OTA reprogramming; defaults to a fixed dev
	// key.
	AuthKey []byte
	// ClockHz / DatapathBits default to the §5.1 operating point.
	ClockHz      int64
	DatapathBits int
	// Optimize runs the opt pass pipeline over the compiled program
	// (table merging + stage fusion) before HLS, and records the fact in
	// the manifest so boot re-applies the same passes. Off by default:
	// the baseline experiments measure the unoptimized flow.
	Optimize bool
}

// Module compiles the app, provisions a module with the bitstream in
// flash slot 1, and boots it. It returns the running module and the
// implementation report.
func Module(sim *netsim.Simulator, spec ModuleSpec) (*core.Module, *hls.Design, error) {
	if spec.App == "" {
		return nil, nil, fmt.Errorf("flexsfp: ModuleSpec.App is required")
	}
	if spec.ClockHz == 0 {
		spec.ClockHz = BaseClockHz
	}
	if spec.DatapathBits == 0 {
		spec.DatapathBits = BaseDatapathBits
	}
	if spec.AuthKey == nil {
		spec.AuthKey = DefaultAuthKey
	}
	var cfg []byte
	if spec.Config != nil {
		b, err := json.Marshal(spec.Config)
		if err != nil {
			return nil, nil, fmt.Errorf("flexsfp: encoding config: %w", err)
		}
		cfg = b
	}
	registry := apps.NewRegistry()
	app, err := registry.New(spec.App)
	if err != nil {
		return nil, nil, err
	}
	// Configure before compiling: apps whose declarative structure
	// depends on their config (e.g. the XDP host app, whose stage count
	// follows the embedded program) must be synthesized post-config.
	// Booting instantiates a fresh instance and configures it again.
	if err := app.Configure(cfg); err != nil {
		return nil, nil, err
	}
	prog := app.Program()
	if spec.Optimize {
		prog, _ = opt.Optimize(prog, opt.Options{})
	}
	design, err := hls.Compile(prog, hls.Options{
		Device: fpga.MPF200T, Shell: spec.Shell,
		ClockHz: spec.ClockHz, DatapathBits: spec.DatapathBits,
		Config: cfg, Optimized: spec.Optimize,
	})
	if err != nil {
		return nil, nil, err
	}
	encoded, err := design.Bitstream.Encode()
	if err != nil {
		return nil, nil, err
	}
	mod := core.NewModule(core.Config{
		Sim: sim, Name: spec.Name, DeviceID: spec.DeviceID,
		Shell: spec.Shell, Registry: registry, AuthKey: spec.AuthKey,
		DeviceName: fpga.MPF200T.Name,
	})
	if _, err := mod.Install(1, encoded); err != nil {
		return nil, nil, err
	}
	if err := mod.BootSync(1); err != nil {
		return nil, nil, err
	}
	return mod, design, nil
}
