package paper

import (
	"fmt"

	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/exp"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

// ---------------------------------------------------------------------------
// §6 latency overhead: "which practical impact of introducing processing
// within the SFP, and when is the trade-off between added latency and
// early enforcement justified?"

// LatencyPoint is the per-frame-size comparison of a plain SFP retimer
// against the FlexSFP PPE path.
type LatencyPoint struct {
	FrameSize int
	PlainSFP  netsim.Duration
	FlexSFP   netsim.Duration
	Added     netsim.Duration
}

// LatencyOverheadResult is the sweep.
type LatencyOverheadResult struct {
	Points []LatencyPoint
}

// latencySingle measures the in-cable processing latency the PPE adds
// over a plain transceiver, per frame size, by timing single frames
// through both modules. Timing single frames draws no randomness, so the
// result is seed-independent.
func latencySingle(ctx exp.RunContext) (LatencyOverheadResult, error) {
	var res LatencyOverheadResult
	for _, size := range []int{64, 256, 512, 1024, 1518} {
		frame := packet.MustBuild(packet.Spec{
			SrcMAC: packet.MustMAC("02:00:00:00:00:71"),
			DstMAC: packet.MustMAC("02:00:00:00:00:72"),
			SrcIP:  mustAddr("10.0.0.1"), DstIP: mustAddr("10.0.0.2"),
			SrcPort: 1, DstPort: 2, PadTo: size,
		})

		// Plain SFP.
		simA := netsim.New(ctx.Seed)
		sfp := core.NewStandardSFP(simA)
		var plainAt netsim.Time
		sfp.SetTx(core.PortOptical, func(b []byte) { plainAt = simA.Now(); packet.PutBuffer(b) })
		sfp.RxEdge(append([]byte(nil), frame...))
		simA.Run()

		// FlexSFP with NAT.
		simB := netsim.New(ctx.Seed)
		mod, _, err := build.Module(simB, build.ModuleSpec{
			Name: "lat", DeviceID: 1, Shell: hls.TwoWayCore, App: "nat",
			ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
		})
		if err != nil {
			return res, err
		}
		var flexAt netsim.Time
		mod.SetTx(core.PortOptical, func(b []byte) { flexAt = simB.Now(); packet.PutBuffer(b) })
		mod.RxEdge(append([]byte(nil), frame...))
		simB.Run()

		res.Points = append(res.Points, LatencyPoint{
			FrameSize: size,
			PlainSFP:  netsim.Duration(plainAt),
			FlexSFP:   netsim.Duration(flexAt),
			Added:     netsim.Duration(flexAt) - netsim.Duration(plainAt),
		})
	}
	return res, nil
}

// Render formats the comparison.
func (r LatencyOverheadResult) Render() string {
	t := exp.NewTable("Frame", "Plain SFP", "FlexSFP (NAT)", "Added")
	for _, p := range r.Points {
		t.Add(fmt.Sprintf("%dB", p.FrameSize),
			p.PlainSFP.String(), p.FlexSFP.String(), p.Added.String())
	}
	out := "Latency overhead (§6): in-cable processing vs a plain transceiver\n" + t.String()
	out += "For context: one meter of fiber costs ~5 ns; a host-CPU detour costs ~1,000 ns (see the acceleration-gap experiment).\n"
	return out
}

func runLatency(ctx exp.RunContext) (exp.Result, error) {
	r, err := latencySingle(ctx)
	if err != nil {
		return nil, err
	}
	env := exp.Envelope{Name: "latency", Params: ctx.Params(), Detail: r}
	for _, p := range r.Points {
		env.Metrics = append(env.Metrics,
			exp.Scalar(fmt.Sprintf("added_ns_%db", p.FrameSize), "ns", float64(p.Added)))
	}
	return exp.NewResult(env, r.Render), nil
}
