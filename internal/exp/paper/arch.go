package paper

import (
	"fmt"

	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/exp"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/phy"
	"flexsfp/internal/trafficgen"
)

// ---------------------------------------------------------------------------
// Figure 1 / §4.1: architecture comparison under bidirectional load.

// ArchPoint is one architecture × clock configuration.
type ArchPoint struct {
	Shell         hls.Shell
	ClockMHz      float64
	Bidirectional bool
	// DeliveredFrac is delivered/offered across both directions.
	DeliveredFrac float64
	// PPEFrac is the fraction of traffic that traversed the PPE (the
	// One-Way-Filter only processes one direction).
	PPEFrac float64
	PeakW   float64
}

// ArchitectureResult compares the Figure-1 shells.
type ArchitectureResult struct {
	Points []ArchPoint
}

// archSingle loads each shell with minimum-size line-rate traffic and
// measures what survives: One-Way-Filter carries both directions at
// 156.25 MHz (only one through the PPE); Two-Way-Core at the same clock
// saturates ("aggregating traffic from both interfaces effectively
// doubles the packet rate", §4.1); doubling the clock restores line rate.
func archSingle(ctx exp.RunContext) (ArchitectureResult, error) {
	var res ArchitectureResult
	type cfg struct {
		shell hls.Shell
		clock int64
		bidir bool
	}
	cases := []cfg{
		{hls.OneWayFilter, build.BaseClockHz, false},
		{hls.OneWayFilter, build.BaseClockHz, true},
		{hls.TwoWayCore, build.BaseClockHz, false},
		{hls.TwoWayCore, build.BaseClockHz, true},
		{hls.TwoWayCore, 2 * build.BaseClockHz, true},
	}
	for _, tc := range cases {
		sim := netsim.New(ctx.Seed)
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name: "arch-dut", DeviceID: 1, Shell: tc.shell, App: "nat",
			ClockHz: tc.clock,
		})
		if err != nil {
			return res, err
		}
		var delivered uint64
		mod.SetTx(0, func(b []byte) { delivered++; packet.PutBuffer(b) })
		mod.SetTx(1, func(b []byte) { delivered++; packet.PutBuffer(b) })

		pps := phy.LineRatePPS(phy.DataRateBps, 64)
		var offered uint64
		genE := trafficgen.New(sim, trafficgen.Config{PPS: pps}, func(b []byte) bool {
			offered++
			mod.RxEdge(b)
			return true
		})
		genE.Run(0)
		var genO *trafficgen.Generator
		if tc.bidir {
			genO = trafficgen.New(sim, trafficgen.Config{PPS: pps}, func(b []byte) bool {
				offered++
				mod.RxOptical(b)
				return true
			})
			genO.Run(0)
		}
		sim.RunFor(netsim.Millisecond)
		genE.Stop()
		if genO != nil {
			genO.Stop()
		}
		sim.RunFor(50 * netsim.Microsecond)

		ppeFrac := 0.0
		if offered > 0 {
			ppeFrac = float64(mod.Engine().Stats().In+mod.Engine().Stats().QueueDrop) / float64(offered)
		}
		res.Points = append(res.Points, ArchPoint{
			Shell:         tc.shell,
			ClockMHz:      float64(tc.clock) / 1e6,
			Bidirectional: tc.bidir,
			DeliveredFrac: float64(delivered) / float64(offered),
			PPEFrac:       ppeFrac,
			PeakW:         core.PeakPowerW(tc.clock, build.BaseDatapathBits, tc.shell),
		})
	}
	return res, nil
}

// Render formats the comparison.
func (r ArchitectureResult) Render() string {
	t := exp.NewTable("Shell", "Clock (MHz)", "Load", "Delivered", "Via PPE", "Peak W")
	for _, p := range r.Points {
		load := "one-way"
		if p.Bidirectional {
			load = "two-way"
		}
		t.Add(p.Shell.String(), fmt.Sprintf("%.2f", p.ClockMHz), load,
			fmt.Sprintf("%.1f%%", p.DeliveredFrac*100),
			fmt.Sprintf("%.1f%%", p.PPEFrac*100),
			fmt.Sprintf("%.2f", p.PeakW))
	}
	return "Architecture comparison (Figure 1, §4.1): 64B line-rate load\n" + t.String()
}

func runArch(ctx exp.RunContext) (exp.Result, error) {
	r, err := archSingle(ctx)
	if err != nil {
		return nil, err
	}
	minDelivered := 1.0
	for _, p := range r.Points {
		if p.DeliveredFrac < minDelivered {
			minDelivered = p.DeliveredFrac
		}
	}
	env := exp.Envelope{
		Name: "arch", Params: ctx.Params(), Detail: r,
		Metrics: []exp.Metric{
			exp.Scalar("configurations", "", float64(len(r.Points))),
			exp.Scalar("min_delivered_frac", "frac", minDelivered),
		},
	}
	return exp.NewResult(env, r.Render), nil
}
