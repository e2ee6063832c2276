package paper

import (
	"fmt"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/exp"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/switchsim"
)

// ---------------------------------------------------------------------------
// §2.1 retrofit economics: upgrading a legacy aggregation switch port by
// port ("replacing the existing SFP modules with programmable SFPs offers
// a modular, drop-in upgrade path") versus the alternatives the paper
// dismisses as impractical.

// RetrofitOption is one way to add programmability to a 48-port switch.
type RetrofitOption struct {
	Name string
	// CapexUSD is the total hardware cost of the upgrade.
	CapexUSD float64
	// AddedPowerW is the additional steady-state power.
	AddedPowerW float64
	// Disruptive: requires chassis replacement or host changes.
	Disruptive bool
	// PerPort: capability lands at every port independently.
	PerPort bool
}

// RetrofitResult is the comparison plus a functional spot check.
type RetrofitResult struct {
	Ports   int
	Options []RetrofitOption
	// SpotCheck verifies a fully retrofitted switch actually enforces
	// per-port policy in simulation.
	SpotCheckEnforced bool
	SpotCheckPowerW   float64
}

// retrofitSingle prices the §2.1 decision for a 48-port aggregation
// switch and runs a functional spot check: a fully FlexSFP-populated
// switch enforcing an IPv6-filtering policy per port. The spot-check
// traffic is deterministic.
func retrofitSingle(ctx exp.RunContext) (RetrofitResult, error) {
	const ports = 48
	res := RetrofitResult{
		Ports: ports,
		Options: []RetrofitOption{
			{
				Name:        "FlexSFP per port",
				CapexUSD:    ports * 275, // §5.2 production band midpoint
				AddedPowerW: ports * (1.52 - core.StandardSFPPowerW),
				Disruptive:  false,
				PerPort:     true,
			},
			{
				Name:        "SmartNIC per attached host",
				CapexUSD:    ports * 1750,
				AddedPowerW: ports * 75,
				Disruptive:  true, // every host opened and re-cabled
				PerPort:     true,
			},
			{
				Name:        "Replace with programmable switch",
				CapexUSD:    45000, // Tofino-class fixed chassis
				AddedPowerW: 300,   // above the legacy box it displaces
				Disruptive:  true,
				PerPort:     true,
			},
			{
				Name:        "Centralized appliance upstream",
				CapexUSD:    12000,
				AddedPowerW: 150,
				Disruptive:  false,
				PerPort:     false, // enforcement leaves the edge
			},
		},
	}

	// Functional spot check on a smaller fully-populated switch.
	sim := netsim.New(ctx.Seed)
	const checkPorts = 8
	sw := switchsim.New(sim, checkPorts)
	hosts := make([]*switchsim.Host, checkPorts)
	for i := 0; i < checkPorts; i++ {
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name: fmt.Sprintf("p%d", i), DeviceID: uint32(i + 1),
			Shell: hls.TwoWayCore, App: "sanitize",
			Config: apps.SanitizeConfig{DropIPv6: true},
		})
		if err != nil {
			return res, err
		}
		sw.Cage(i).Insert(mod)
		hosts[i] = switchsim.NewHost("h", packet.MAC{2, 0, 0, 0, 7, byte(i + 1)})
		switchsim.Fiber(sim, sw.Cage(i), hosts[i], 10_000_000_000, 100)
	}
	// Learn MACs, then check IPv6 is cut at every port while IPv4 flows.
	for i := 1; i < checkPorts; i++ {
		hosts[i].Send(packet.MustBuild(packet.Spec{
			SrcMAC: hosts[i].MAC, DstMAC: hosts[0].MAC,
			SrcIP: mustAddr("10.0.0.2"), DstIP: mustAddr("10.0.0.1"),
			SrcPort: 1, DstPort: 2, PadTo: 64,
		}))
	}
	sim.Run()
	h0v4 := hosts[0].RxFrames
	for i := 1; i < checkPorts; i++ {
		hosts[i].Send(packet.MustBuild(packet.Spec{
			SrcMAC: hosts[i].MAC, DstMAC: hosts[0].MAC,
			SrcIP: mustAddr("2001:db8::2"), DstIP: mustAddr("2001:db8::1"),
			SrcPort: 1, DstPort: 2, PadTo: 64,
		}))
	}
	sim.RunFor(10 * netsim.Millisecond)
	res.SpotCheckEnforced = hosts[0].RxFrames == h0v4 // no IPv6 leaked
	res.SpotCheckPowerW = sw.TotalTransceiverPowerW()
	return res, nil
}

// Render formats the comparison.
func (r RetrofitResult) Render() string {
	t := exp.NewTable("Upgrade path", "CAPEX ($)", "Added power (W)", "Drop-in?", "Per-port?")
	for _, o := range r.Options {
		dis := "yes"
		if o.Disruptive {
			dis = "NO"
		}
		pp := "yes"
		if !o.PerPort {
			pp = "NO"
		}
		t.Add(o.Name, fmt.Sprintf("%.0f", o.CapexUSD), fmt.Sprintf("%.0f", o.AddedPowerW), dis, pp)
	}
	out := fmt.Sprintf("Retrofit economics (§2.1): adding per-port programmability to a %d-port legacy switch\n", r.Ports) + t.String()
	out += fmt.Sprintf("Spot check (8-port sim, IPv6 filter per port): enforced=%v, transceiver power %.1f W\n",
		r.SpotCheckEnforced, r.SpotCheckPowerW)
	return out
}

func runRetrofit(ctx exp.RunContext) (exp.Result, error) {
	r, err := retrofitSingle(ctx)
	if err != nil {
		return nil, err
	}
	enforced := 0.0
	if r.SpotCheckEnforced {
		enforced = 1
	}
	env := exp.Envelope{
		Name: "retrofit", Params: ctx.Params(), Detail: r,
		Metrics: []exp.Metric{
			exp.Scalar("flexsfp_capex_usd", "$", r.Options[0].CapexUSD),
			exp.Scalar("spot_check_enforced", "bool", enforced),
			exp.Scalar("spot_check_power_w", "W", r.SpotCheckPowerW),
		},
	}
	return exp.NewResult(env, r.Render), nil
}
