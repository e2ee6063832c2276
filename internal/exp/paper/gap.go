package paper

import (
	"fmt"
	"sort"

	"flexsfp/internal/apps"
	"flexsfp/internal/baseline"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/exp"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/trafficgen"
)

// ---------------------------------------------------------------------------
// §2 acceleration gap: the same micro-task on host CPU / SmartNIC / FlexSFP.

// GapPoint is one path's measured profile.
type GapPoint struct {
	Path       string
	P50, P99   netsim.Duration
	Throughput float64 // delivered pps
	PowerW     float64
	CostUSD    float64
}

// GapResult quantifies the acceleration gap.
type GapResult struct {
	OfferedPPS float64
	Points     []GapPoint
}

// gapSingle runs an ACL micro-task at 1 Mpps over the three paths of §2:
// host CPU (latency/jitter/contention), SmartNIC (cost/power overkill),
// and the FlexSFP cheap path.
func gapSingle(ctx exp.RunContext) (GapResult, error) {
	const offeredPPS = 1_000_000
	const frames = 20000
	res := GapResult{OfferedPPS: offeredPPS}

	percentiles := func(lat []netsim.Duration) (p50, p99 netsim.Duration) {
		if len(lat) == 0 {
			return 0, 0
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2], lat[len(lat)*99/100]
	}

	// Host CPU path, with 30% background contention.
	{
		sim := netsim.New(ctx.Seed)
		var lat []netsim.Duration
		h := baseline.NewHostCPU(sim, func(d []byte, l netsim.Duration) { lat = append(lat, l) })
		h.Contention = 0.3
		gen := trafficgen.New(sim, trafficgen.Config{PPS: offeredPPS}, func(b []byte) bool {
			return h.Submit(b)
		})
		gen.Run(frames)
		sim.Run()
		p50, p99 := percentiles(lat)
		res.Points = append(res.Points, GapPoint{
			Path: h.Name(), P50: p50, P99: p99,
			Throughput: float64(len(lat)) / sim.Now().Seconds(),
			PowerW:     h.PowerW(), CostUSD: h.CostUSD(),
		})
	}

	// SmartNIC path.
	{
		sim := netsim.New(ctx.Seed)
		var lat []netsim.Duration
		s := baseline.NewSmartNIC(sim, func(d []byte, l netsim.Duration) { lat = append(lat, l) })
		gen := trafficgen.New(sim, trafficgen.Config{PPS: offeredPPS}, func(b []byte) bool {
			return s.Submit(b)
		})
		gen.Run(frames)
		sim.Run()
		p50, p99 := percentiles(lat)
		res.Points = append(res.Points, GapPoint{
			Path: s.Name(), P50: p50, P99: p99,
			Throughput: float64(len(lat)) / sim.Now().Seconds(),
			PowerW:     s.PowerW(), CostUSD: s.CostUSD(),
		})
	}

	// FlexSFP path: the real module running the ACL app.
	{
		sim := netsim.New(ctx.Seed)
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name: "gap-dut", DeviceID: 1, Shell: hls.TwoWayCore, App: "acl",
			ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
			Config: apps.ACLConfig{Rules: []apps.ACLRule{
				{DstPort: 22, Proto: 6, Deny: true, Priority: 10},
			}},
		})
		if err != nil {
			return res, err
		}
		var lat []netsim.Duration
		sent := map[int]netsim.Time{}
		n := 0
		mod.SetTx(1, func(b []byte) {
			lat = append(lat, sim.Now().Sub(sent[len(lat)]))
			packet.PutBuffer(b)
		})
		gen := trafficgen.New(sim, trafficgen.Config{PPS: offeredPPS}, func(b []byte) bool {
			sent[n] = sim.Now()
			n++
			mod.RxEdge(b)
			return true
		})
		gen.Run(frames)
		sim.Run()
		p50, p99 := percentiles(lat)
		res.Points = append(res.Points, GapPoint{
			Path: "flexsfp", P50: p50, P99: p99,
			Throughput: float64(len(lat)) / sim.Now().Seconds(),
			PowerW:     core.PeakPowerW(build.BaseClockHz, build.BaseDatapathBits, hls.TwoWayCore),
			CostUSD:    275,
		})
	}
	return res, nil
}

// Render formats the gap table.
func (r GapResult) Render() string {
	t := exp.NewTable("Path", "p50 latency", "p99 latency", "Power (W)", "Cost ($/port)")
	for _, p := range r.Points {
		t.Add(p.Path,
			fmt.Sprintf("%.2f µs", float64(p.P50)/1000),
			fmt.Sprintf("%.2f µs", float64(p.P99)/1000),
			fmt.Sprintf("%.1f", p.PowerW),
			fmt.Sprintf("%.0f", p.CostUSD))
	}
	return fmt.Sprintf("Acceleration gap (§2): ACL micro-task at %.0f pps\n", r.OfferedPPS) + t.String()
}

func runGap(ctx exp.RunContext) (exp.Result, error) {
	r, err := gapSingle(ctx)
	if err != nil {
		return nil, err
	}
	env := exp.Envelope{Name: "gap", Params: ctx.Params(), Detail: r}
	for _, p := range r.Points {
		env.Metrics = append(env.Metrics,
			exp.Scalar(p.Path+"_p99_us", "µs", float64(p.P99)/1000))
	}
	return exp.NewResult(env, r.Render), nil
}
