package paper

import (
	"fmt"

	"flexsfp/internal/build"
	"flexsfp/internal/exp"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/power"
	"flexsfp/internal/runner"
	"flexsfp/internal/trafficgen"
)

// ---------------------------------------------------------------------------
// §5 power measurement.

// PowerResult reproduces the Thunderbolt-NIC testbed numbers.
type PowerResult struct {
	Report power.Report
	// FlexUtilization is the PPE utilization reached under the stress
	// test (drives dynamic power).
	FlexUtilization float64
	// Paper values.
	PaperNICOnly, PaperWithSFP, PaperWithFlex float64
}

// powerSingle runs the three-step §5 procedure: baseline, standard SFP
// under line-rate stress, FlexSFP (NAT, Two-Way-Core) under bidirectional
// line-rate stress.
func powerSingle(ctx exp.RunContext) (PowerResult, error) {
	sim := netsim.New(ctx.Seed)

	mod, _, err := build.Module(sim, build.ModuleSpec{
		Name: "power-dut", DeviceID: 1, Shell: hls.TwoWayCore, App: "nat",
		ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
	})
	if err != nil {
		return PowerResult{}, err
	}
	// Recycle frames at the Tx sinks: the generator draws its buffers
	// from the pool, so the steady state allocates nothing per frame.
	mod.SetTx(0, packet.PutBuffer)
	mod.SetTx(1, packet.PutBuffer)

	// Bidirectional line-rate minimum-size stress for 1 ms of sim time.
	pps := 14_880_952.0
	gen1 := trafficgen.New(sim, trafficgen.Config{PPS: pps}, func(b []byte) bool {
		mod.RxEdge(b)
		return true
	})
	gen2 := trafficgen.New(sim, trafficgen.Config{PPS: pps}, func(b []byte) bool {
		mod.RxOptical(b)
		return true
	})
	gen1.Run(0)
	gen2.Run(0)
	sim.RunFor(netsim.Millisecond)
	gen1.Stop()
	gen2.Stop()
	sim.RunFor(10 * netsim.Microsecond)

	flexW := mod.PowerW()
	util := mod.Engine().Utilization()

	tb := power.NewTestbed(sim)
	// A standard SFP draws its constant figure under the same stress.
	rep := tb.Run(0.893, flexW, 500)
	return PowerResult{
		Report:          rep,
		FlexUtilization: util,
		PaperNICOnly:    3.800, PaperWithSFP: 4.693, PaperWithFlex: 5.320,
	}, nil
}

// Render formats the measurement report.
func (r PowerResult) Render() string {
	t := exp.NewTable("Step", "Model (W)", "Paper (W)")
	t.Add("NIC only", fmt.Sprintf("%.3f", r.Report.NICOnly.MeanW), fmt.Sprintf("%.3f", r.PaperNICOnly))
	t.Add("NIC + SFP (stress)", fmt.Sprintf("%.3f", r.Report.WithSFP.MeanW), fmt.Sprintf("%.3f", r.PaperWithSFP))
	t.Add("NIC + FlexSFP (stress)", fmt.Sprintf("%.3f", r.Report.WithFlex.MeanW), fmt.Sprintf("%.3f", r.PaperWithFlex))
	out := "Power measurement (§5): Thunderbolt NIC testbed\n" + t.String()
	out += fmt.Sprintf("Deltas: SFP %.3f W (~.9), FlexSFP %.3f W (~1.5), increase over SFP %.3f W (~.7); PPE utilization %.2f\n",
		r.Report.DeltaSFP, r.Report.DeltaFlex, r.Report.FlexOverSFP, r.FlexUtilization)
	return out
}

// PowerTrialsResult is the §5 power experiment over many seeds.
type PowerTrialsResult struct {
	Trials int

	NICOnlyW    runner.Summary
	WithSFPW    runner.Summary
	WithFlexW   runner.Summary
	DeltaFlexW  runner.Summary
	Utilization runner.Summary

	// Paper values for comparison.
	PaperNICOnly, PaperWithSFP, PaperWithFlex float64
}

// powerTrials runs the §5 power procedure for ctx.Trials seeds in
// parallel (workers bounded by ctx.Parallelism; 0 = GOMAXPROCS).
func powerTrials(ctx exp.RunContext) (PowerTrialsResult, error) {
	tr, err := exp.RunTrials(ctx, func(_ int, seed int64) (PowerResult, error) {
		return powerSingle(exp.RunContext{
			Seed: seed, ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
		})
	})
	if err != nil {
		return PowerTrialsResult{}, err
	}
	first := tr.First()
	return PowerTrialsResult{
		Trials:       tr.N(),
		NICOnlyW:     tr.Metric(func(r PowerResult) float64 { return r.Report.NICOnly.MeanW }),
		WithSFPW:     tr.Metric(func(r PowerResult) float64 { return r.Report.WithSFP.MeanW }),
		WithFlexW:    tr.Metric(func(r PowerResult) float64 { return r.Report.WithFlex.MeanW }),
		DeltaFlexW:   tr.Metric(func(r PowerResult) float64 { return r.Report.DeltaFlex }),
		Utilization:  tr.Metric(func(r PowerResult) float64 { return r.FlexUtilization }),
		PaperNICOnly: first.PaperNICOnly, PaperWithSFP: first.PaperWithSFP,
		PaperWithFlex: first.PaperWithFlex,
	}, nil
}

// Render formats the multi-seed power report.
func (r PowerTrialsResult) Render() string {
	t := exp.NewTable("Step", "Model (W, mean ± 95% CI)", "Paper (W)")
	t.Add("NIC only", fmtCI(r.NICOnlyW, 3), fmt.Sprintf("%.3f", r.PaperNICOnly))
	t.Add("NIC + SFP (stress)", fmtCI(r.WithSFPW, 3), fmt.Sprintf("%.3f", r.PaperWithSFP))
	t.Add("NIC + FlexSFP (stress)", fmtCI(r.WithFlexW, 3), fmt.Sprintf("%.3f", r.PaperWithFlex))
	out := fmt.Sprintf("Power measurement (§5): %d trials\n", r.Trials) + t.String()
	out += fmt.Sprintf("FlexSFP delta %s W; PPE utilization %s\n",
		fmtCI(r.DeltaFlexW, 3), fmtCI(r.Utilization, 2))
	return out
}

// runPower is the registered entry point: single-seed below two trials,
// multi-seed with CIs otherwise — uniform knobs either way.
func runPower(ctx exp.RunContext) (exp.Result, error) {
	env := exp.Envelope{Name: "power", Params: ctx.Params()}
	if ctx.EffectiveTrials() > 1 {
		r, err := powerTrials(ctx)
		if err != nil {
			return nil, err
		}
		env.Detail = r
		env.Metrics = []exp.Metric{
			exp.FromSummary("nic_only_w", "W", r.NICOnlyW).VsPaper(r.PaperNICOnly),
			exp.FromSummary("with_sfp_w", "W", r.WithSFPW).VsPaper(r.PaperWithSFP),
			exp.FromSummary("with_flex_w", "W", r.WithFlexW).VsPaper(r.PaperWithFlex),
			exp.FromSummary("ppe_utilization", "frac", r.Utilization),
		}
		return exp.NewResult(env, r.Render), nil
	}
	r, err := powerSingle(ctx)
	if err != nil {
		return nil, err
	}
	env.Detail = r
	env.Metrics = []exp.Metric{
		exp.Scalar("nic_only_w", "W", r.Report.NICOnly.MeanW).VsPaper(r.PaperNICOnly),
		exp.Scalar("with_sfp_w", "W", r.Report.WithSFP.MeanW).VsPaper(r.PaperWithSFP),
		exp.Scalar("with_flex_w", "W", r.Report.WithFlex.MeanW).VsPaper(r.PaperWithFlex),
		exp.Scalar("ppe_utilization", "frac", r.FlexUtilization),
	}
	return exp.NewResult(env, r.Render), nil
}
