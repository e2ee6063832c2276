package paper

import (
	"encoding/json"
	"fmt"
	"sort"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/exp"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/opt"
	"flexsfp/internal/ppe"
	"flexsfp/internal/runner"
	"flexsfp/internal/trafficgen"
)

// ---------------------------------------------------------------------------
// Pipeline optimizer evaluation (pipeline_opt).

// optEquivFrames is the per-app verdict-equivalence corpus the experiment
// replays. The heavyweight 10k-frame property lives in internal/opt's
// tests; the experiment repeats a smaller deterministic corpus so the
// "verdict_mismatches" metric is measured on every run, not assumed.
const optEquivFrames = 512

// AppOptResult is the optimizer's effect on one catalog app.
type AppOptResult struct {
	App string     `json:"app"`
	Opt opt.Report `json:"opt"`
	// ServiceCycles before/after at 64B on the §5.1 operating point
	// (streaming words or the soft core's schedule, whichever dominates).
	ServiceCyclesBefore int64 `json:"service_cycles_before"`
	ServiceCyclesAfter  int64 `json:"service_cycles_after"`
	// LatencyNs before/after: pipeline depth + service at 156.25 MHz.
	LatencyNsBefore float64 `json:"latency_ns_before"`
	LatencyNsAfter  float64 `json:"latency_ns_after"`
	// LUT4/USRAM deltas from the hls estimator at 64-bit.
	LUT4Saved  int `json:"lut4_saved"`
	USRAMSaved int `json:"usram_saved"`
	// VerdictMismatches over the replayed equivalence corpus (must be 0).
	VerdictMismatches int `json:"verdict_mismatches"`
}

// XDPOptSummary is the instruction-pass report for the reference codelet.
type XDPOptSummary struct {
	Program string        `json:"program"`
	Report  opt.XDPReport `json:"report"`
}

// LineRateDelta is the measured end-to-end effect of the optimizer on
// the program-bound XDP module at 64B line rate.
type LineRateDelta struct {
	App              string  `json:"app"`
	OfferedMpps      float64 `json:"offered_mpps"`
	DeliveredOffMpps float64 `json:"delivered_off_mpps"`
	DeliveredOnMpps  float64 `json:"delivered_on_mpps"`
	DropsOff         uint64  `json:"drops_off"`
	DropsOn          uint64  `json:"drops_on"`
	GainPct          float64 `json:"gain_pct"`
	ServiceCyclesOff int64   `json:"service_cycles_off"`
	ServiceCyclesOn  int64   `json:"service_cycles_on"`
}

// PipelineOptResult is the full optimizer evaluation.
type PipelineOptResult struct {
	Apps     []AppOptResult `json:"apps"`
	XDP      XDPOptSummary  `json:"xdp"`
	LineRate LineRateDelta  `json:"line_rate"`

	// Headline rollups; pipelineOptSingle fails the run on a regression.
	AppsDepthReduced int `json:"apps_depth_reduced"`
	DepthRegressions int `json:"depth_regressions"`
}

// pipelineOptSingle evaluates the optimizer over every catalog app.
func pipelineOptSingle(ctx exp.RunContext) (PipelineOptResult, error) {
	reg := apps.NewRegistry()
	names := reg.Names()
	sort.Strings(names)

	var res PipelineOptResult
	for i, name := range names {
		r, err := evalAppOpt(name, int64(i)+ctx.Seed)
		if err != nil {
			return PipelineOptResult{}, fmt.Errorf("pipeline_opt: %s: %w", name, err)
		}
		res.Apps = append(res.Apps, r)
		if r.Opt.DepthAfter < r.Opt.DepthBefore {
			res.AppsDepthReduced++
		}
		if r.Opt.DepthAfter > r.Opt.DepthBefore {
			res.DepthRegressions++
		}
	}

	vm := apps.CanonicalXDPProgram()
	_, xrep, err := opt.OptimizeXDP(vm, opt.Options{})
	if err != nil {
		return PipelineOptResult{}, err
	}
	res.XDP = XDPOptSummary{Program: vm.Name, Report: xrep}

	lr, err := xdpLineRateDelta(ctx)
	if err != nil {
		return PipelineOptResult{}, err
	}
	res.LineRate = lr
	return res, res.check()
}

// verdictMismatches sums the per-app equivalence failures.
func (r PipelineOptResult) verdictMismatches() int {
	n := 0
	for _, a := range r.Apps {
		n += a.VerdictMismatches
	}
	return n
}

// check holds the optimizer's guarantees at every operating point:
// no app's pipeline gets deeper, and no verdict changes.
func (r PipelineOptResult) check() error {
	if r.DepthRegressions != 0 {
		return fmt.Errorf("invariant violated: depth_regressions = %d, want 0", r.DepthRegressions)
	}
	if n := r.verdictMismatches(); n != 0 {
		return fmt.Errorf("invariant violated: verdict_mismatches = %d, want 0", n)
	}
	return nil
}

// evalAppOpt compiles one app plain and optimized, compares structure,
// resources, and verdict behavior over a deterministic corpus.
func evalAppOpt(name string, seed int64) (AppOptResult, error) {
	mk := func(optimize bool) (*ppe.Program, error) {
		reg := apps.NewRegistry()
		app, err := reg.New(name)
		if err != nil {
			return nil, err
		}
		cfg, err := apps.CanonicalConfig(name)
		if err != nil {
			return nil, err
		}
		if xc, ok := cfg.(apps.XDPConfig); ok && optimize {
			xc.Optimize = true
			cfg = xc
		}
		raw, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		if err := app.Configure(raw); err != nil {
			return nil, err
		}
		return app.Program(), nil
	}

	before, err := mk(false)
	if err != nil {
		return AppOptResult{}, err
	}
	tuned, err := mk(true)
	if err != nil {
		return AppOptResult{}, err
	}
	after, rep := opt.Optimize(tuned, opt.Options{})

	r := AppOptResult{App: name, Opt: rep}
	r.ServiceCyclesBefore = serviceCycles64(before)
	r.ServiceCyclesAfter = serviceCycles64(after)
	const clockHz = 156_250_000
	r.LatencyNsBefore = float64(r.ServiceCyclesBefore+int64(before.PipelineDepth(64))) * 1e9 / clockHz
	r.LatencyNsAfter = float64(r.ServiceCyclesAfter+int64(after.PipelineDepth(64))) * 1e9 / clockHz
	eb := hls.EstimateProgram(before, 64)
	ea := hls.EstimateProgram(after, 64)
	r.LUT4Saved = eb.LUT4 - ea.LUT4
	r.USRAMSaved = eb.USRAM - ea.USRAM

	rng := runner.NewRand(seed)
	for i := 0; i < optEquivFrames; i++ {
		n := rng.Intn(220)
		frame := make([]byte, n)
		rng.Read(frame)
		a := append([]byte(nil), frame...)
		b := append([]byte(nil), frame...)
		dir := ppe.Direction(i % 2)
		ts := uint64(i) * 100
		ctxA := &ppe.Ctx{Data: a, Dir: dir, TimestampNs: ts}
		ctxB := &ppe.Ctx{Data: b, Dir: dir, TimestampNs: ts}
		if before.Handler.HandlePacket(ctxA) != after.Handler.HandlePacket(ctxB) {
			r.VerdictMismatches++
		}
	}
	return r, nil
}

// serviceCycles64 mirrors ppe.Engine.ServiceCycles for a 64B frame on
// the 64-bit baseline datapath.
func serviceCycles64(p *ppe.Program) int64 {
	svc := int64(64/8) + 1
	if pc := int64(p.ProgCycles); svc < pc {
		svc = pc
	}
	return svc
}

// xdpLineRateDelta drives the XDP module at 64B line rate twice — the
// soft core scalar (optimizer off) vs the packed VLIW schedule
// (optimizer on) — on identically seeded simulators. The reference
// codelet retires 17 scalar cycles against 9 streaming words, so the
// unoptimized module is program-bound below line rate; the measured
// delivered-rate gap is the optimizer's end-to-end win.
func xdpLineRateDelta(ctx exp.RunContext) (LineRateDelta, error) {
	run := func(optimize bool) (lineSample, int64, error) {
		sim := netsim.New(ctx.Seed)
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name: "opt-dut", DeviceID: 1, Shell: hls.TwoWayCore, App: "xdp",
			ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
			Optimize: optimize,
			Config: apps.XDPConfig{
				Program:  *apps.CanonicalXDPProgram(),
				Optimize: optimize,
			},
		})
		if err != nil {
			return lineSample{}, 0, err
		}
		probe := newLineProbe(sim, mod)
		probe.start(trafficgen.Config{Sizes: []trafficgen.IMIXEntry{{Size: 64, Weight: 1}}, Flows: 32})
		probe.run()
		return probe.sample(), mod.Engine().ServiceCycles(64), nil
	}

	off, offSvc, err := run(false)
	if err != nil {
		return LineRateDelta{}, err
	}
	on, onSvc, err := run(true)
	if err != nil {
		return LineRateDelta{}, err
	}
	d := LineRateDelta{
		App:              "xdp",
		OfferedMpps:      off.offeredPPS / 1e6,
		DeliveredOffMpps: off.deliveredPPS / 1e6,
		DeliveredOnMpps:  on.deliveredPPS / 1e6,
		DropsOff:         off.drops,
		DropsOn:          on.drops,
		ServiceCyclesOff: offSvc,
		ServiceCyclesOn:  onSvc,
	}
	if off.deliveredPPS > 0 {
		d.GainPct = (on.deliveredPPS/off.deliveredPPS - 1) * 100
	}
	return d, nil
}

// Render formats the optimizer evaluation.
func (r PipelineOptResult) Render() string {
	t := exp.NewTable("App", "Stages", "Tables", "Depth (cyc)", "Svc (cyc)", "Latency (ns)", "LUT4 saved", "Mismatches")
	for _, a := range r.Apps {
		t.Add(a.App,
			fmt.Sprintf("%d→%d", a.Opt.StagesBefore, a.Opt.StagesAfter),
			fmt.Sprintf("%d→%d", a.Opt.TablesBefore, a.Opt.TablesAfter),
			fmt.Sprintf("%d→%d", a.Opt.DepthBefore, a.Opt.DepthAfter),
			fmt.Sprintf("%d→%d", a.ServiceCyclesBefore, a.ServiceCyclesAfter),
			fmt.Sprintf("%.1f→%.1f", a.LatencyNsBefore, a.LatencyNsAfter),
			a.LUT4Saved, a.VerdictMismatches)
	}
	out := "Pipeline optimizer: structural passes over the app catalog\n" + t.String()
	x := r.XDP.Report
	out += fmt.Sprintf("XDP %q: %d→%d insns (%d unreachable, %d dead writes, %d folded loads, %d threaded jumps); schedule %d→%d cycles at width 4\n",
		r.XDP.Program, x.InsnsBefore, x.InsnsAfter,
		x.Unreachable, x.DeadWrites, x.FoldedLoads, x.ThreadedJumps,
		x.ScalarCycles, x.PackedCycles)
	lr := r.LineRate
	out += fmt.Sprintf("Measured 64B line rate (xdp): offered %.3f Mpps, delivered %.3f → %.3f Mpps (+%.1f%%), service %d → %d cycles\n",
		lr.OfferedMpps, lr.DeliveredOffMpps, lr.DeliveredOnMpps, lr.GainPct,
		lr.ServiceCyclesOff, lr.ServiceCyclesOn)
	out += fmt.Sprintf("Depth reduced for %d/%d apps; regressions %d\n",
		r.AppsDepthReduced, len(r.Apps), r.DepthRegressions)
	return out
}

// runPipelineOpt is the registered entry point.
func runPipelineOpt(ctx exp.RunContext) (exp.Result, error) {
	env := exp.Envelope{Name: "pipeline_opt", Params: ctx.Params()}
	r, err := pipelineOptSingle(ctx)
	if err != nil {
		return nil, err
	}
	env.Detail = r
	env.Metrics = []exp.Metric{
		exp.Scalar("apps_total", "", float64(len(r.Apps))),
		exp.Scalar("apps_depth_reduced", "", float64(r.AppsDepthReduced)),
		exp.Scalar("depth_regressions", "", float64(r.DepthRegressions)),
		exp.Scalar("verdict_mismatches", "", float64(r.verdictMismatches())),
		exp.Scalar("xdp_delivered_off", "Mpps", r.LineRate.DeliveredOffMpps),
		exp.Scalar("xdp_delivered_on", "Mpps", r.LineRate.DeliveredOnMpps),
		exp.Scalar("xdp_linerate_gain", "%", r.LineRate.GainPct),
	}
	return exp.NewResult(env, r.Render), nil
}
