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
	"flexsfp/internal/runner"
	"flexsfp/internal/telemetry"
	"flexsfp/internal/trafficgen"
)

// ---------------------------------------------------------------------------
// §5.1 line-rate verification.

// LineRatePoint is one frame-size measurement.
type LineRatePoint struct {
	Label        string
	FrameSize    int // 0 for IMIX
	OfferedPPS   float64
	DeliveredPPS float64
	GoodputGbps  float64
	Drops        uint64
	LineRate     bool // delivered ≥ 99.5% of offered
	// Telemetry carries the headline in-cable counters when the run was
	// instrumented (RunContext.Telemetry); nil — and omitted from JSON —
	// otherwise, so canonical envelopes are unchanged by default.
	Telemetry *CaseTelemetry `json:",omitempty"`
}

// CaseTelemetry is the headline counter set folded out of an instrumented
// case's metric registry.
type CaseTelemetry struct {
	FramesIn      uint64  `json:"frames_in"`
	BytesIn       uint64  `json:"bytes_in"`
	QueueDrops    uint64  `json:"queue_drops"`
	MeanLatencyNs float64 `json:"mean_latency_ns"`
	MaxLatencyNs  uint64  `json:"max_latency_ns"`
	MaxQueueDepth uint64  `json:"max_queue_depth"`
}

// LineRateResult is the full sweep.
type LineRateResult struct {
	Points []LineRatePoint
}

// lineRateCase is one frame-size configuration of the sweep.
type lineRateCase struct {
	label string
	sizes []trafficgen.IMIXEntry
	size  int
}

func lineRateCases() []lineRateCase {
	return []lineRateCase{
		{"64B", []trafficgen.IMIXEntry{{Size: 64, Weight: 1}}, 64},
		{"128B", []trafficgen.IMIXEntry{{Size: 128, Weight: 1}}, 128},
		{"256B", []trafficgen.IMIXEntry{{Size: 256, Weight: 1}}, 256},
		{"512B", []trafficgen.IMIXEntry{{Size: 512, Weight: 1}}, 512},
		{"1024B", []trafficgen.IMIXEntry{{Size: 1024, Weight: 1}}, 1024},
		{"1518B", []trafficgen.IMIXEntry{{Size: 1518, Weight: 1}}, 1518},
		{"IMIX", trafficgen.SimpleIMIX(), 0},
	}
}

// The §5.1 line-rate probe, shared by linerate, catalog and pipeline_opt:
// a rate meter on port 1, buffer-recycling sinks on both ports, and a
// generator that reaches the module through an actual 10G wire. The
// link's serialization enforces the physical per-frame spacing a real
// tester is bound by (a mean-paced generator would otherwise burst
// mixed-size traffic above wire rate).
const (
	lineProbeWindow = netsim.Millisecond       // measured window
	lineProbeDrain  = 100 * netsim.Microsecond // in-flight frames leave
)

// lineProbe is one module under the probe.
type lineProbe struct {
	sim   *netsim.Simulator
	mod   *core.Module
	meter *netsim.RateMeter
	gen   *trafficgen.Generator
}

// newLineProbe installs the meter and the sinks on mod.
func newLineProbe(sim *netsim.Simulator, mod *core.Module) *lineProbe {
	p := &lineProbe{sim: sim, mod: mod, meter: netsim.NewRateMeter()}
	mod.SetTx(1, func(b []byte) {
		p.meter.Observe(len(b))
		packet.PutBuffer(b)
	})
	mod.SetTx(0, packet.PutBuffer)
	return p
}

// start offers cfg at 10G line rate for its mix's mean frame size (plus
// the 20 B of preamble and inter-frame gap every frame costs on the wire).
func (p *lineProbe) start(cfg trafficgen.Config) {
	total, weight := 0, 0
	if len(cfg.Templates) > 0 {
		for _, wf := range cfg.Templates {
			total += len(wf.Frame) * wf.Weight
			weight += wf.Weight
		}
	} else {
		for _, e := range cfg.Sizes {
			total += e.Size * e.Weight
			weight += e.Weight
		}
	}
	mean := float64(total) / float64(weight)
	cfg.PPS = 10e9 / ((mean + 20) * 8)
	wire := netsim.NewLink(p.sim, 10_000_000_000, 0, p.mod.RxEdge)
	p.gen = trafficgen.New(p.sim, cfg, wire.Send)
	p.gen.Run(0)
}

// run drives a probe that owns its simulator through the window and the
// drain.
func (p *lineProbe) run() {
	p.sim.RunFor(lineProbeWindow)
	p.gen.Stop()
	p.sim.RunFor(lineProbeDrain)
}

// lineSample is a probe's measurement over the window.
type lineSample struct {
	offeredPPS, deliveredPPS, goodputGbps float64
	drops                                 uint64
}

func (p *lineProbe) sample() lineSample {
	window := lineProbeWindow.Seconds()
	return lineSample{
		offeredPPS:   float64(p.gen.Sent) / window,
		deliveredPPS: float64(p.meter.Frames) / window,
		goodputGbps:  float64(p.meter.Bytes) * 8 / window / 1e9,
		drops:        p.mod.Engine().Stats().QueueDrop,
	}
}

// lineRateSweep drives the NAT module at 10G line rate across frame sizes
// (the §5.1 "simple end-to-end test, which confirmed line-rate
// performance").
//
// The sweep runs on the parallel simulation core: the cases
// are logical partitions placed round-robin over max(ctx.Shards, 1) event
// heaps and advanced together. The cases never interact, so one
// conservative window covers the whole run and the shards execute wall-
// clock-parallel with no barrier traffic.
//
// Determinism follows the Sharded placement-invariance rules: each case's
// generator draws from its partition stream (never the shard's ambient
// RNG), and every absolute timestamp in a case's world is the common
// post-boot epoch plus a shift-invariant offset — link and engine
// picosecond arithmetic is linear in whole-nanosecond shifts — so the
// sweep's JSON is byte-identical at any shard count.
func lineRateSweep(ctx exp.RunContext) (LineRateResult, error) {
	cases := lineRateCases()
	sh := netsim.NewSharded(ctx.Seed, max(ctx.Shards, 1))
	probes := make([]*lineProbe, len(cases))
	regs := make([]*telemetry.Registry, len(cases))

	// Wiring pass: build every case's module on its home shard. Boots
	// advance shard clocks unevenly (co-located cases boot back to back),
	// so the measurement epoch is aligned afterwards.
	for i, tc := range cases {
		sim := sh.Shard(sh.ShardFor(i))
		mod, _, err := build.Module(sim, build.ModuleSpec{
			Name: "lr-dut-" + tc.label, DeviceID: uint32(i + 1),
			Shell: hls.TwoWayCore, App: "nat",
			ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
			Optimize: ctx.Optimize,
			Config: apps.NATConfig{Mappings: []apps.NATMapping{
				{Internal: "10.1.0.1", External: "203.0.113.1"},
			}},
		})
		if err != nil {
			return LineRateResult{}, err
		}
		// Instrumentation covers the module/PPE counters only: the
		// per-event simulator histogram (Simulator.AttachTelemetry) costs
		// ~30ns on every scheduled event — too hot for a performance
		// measurement. It stays a daemon-side facility.
		if ctx.Telemetry {
			regs[i] = telemetry.New()
			mod.AttachTelemetry(regs[i])
		}
		probes[i] = newLineProbe(sim, mod)
	}
	epoch := sh.AlignClocks()

	// Measurement pass: all cases share the window that starts at the epoch.
	for i, tc := range cases {
		probes[i].start(trafficgen.Config{Sizes: tc.sizes, Flows: 32, Rand: sh.Stream(i)})
	}
	sh.RunUntil(epoch.Add(lineProbeWindow))
	for _, p := range probes {
		p.gen.Stop()
	}
	sh.RunUntil(epoch.Add(lineProbeWindow + lineProbeDrain))
	ctx.Progressf("linerate: %d shards: %v", sh.Shards(), sh.Stats())

	res := LineRateResult{Points: make([]LineRatePoint, len(cases))}
	for i, tc := range cases {
		s := probes[i].sample()
		res.Points[i] = LineRatePoint{
			Label:        tc.label,
			FrameSize:    tc.size,
			OfferedPPS:   s.offeredPPS,
			DeliveredPPS: s.deliveredPPS,
			GoodputGbps:  s.goodputGbps,
			Drops:        s.drops,
			LineRate:     s.drops == 0,
			Telemetry:    caseTelemetry(regs[i]),
		}
	}
	return res, nil
}

// caseTelemetry folds an instrumented case's registry into its headline
// counters; nil when the case was not instrumented.
func caseTelemetry(reg *telemetry.Registry) *CaseTelemetry {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	ct := &CaseTelemetry{}
	ct.FramesIn, _ = snap.Counter("ppe.frames_in")
	ct.BytesIn, _ = snap.Counter("ppe.bytes_in")
	ct.QueueDrops, _ = snap.Counter("ppe.queue_drops")
	if lat, ok := snap.Histogram("ppe.latency_ns"); ok && lat.Count > 0 {
		ct.MeanLatencyNs = float64(lat.Sum) / float64(lat.Count)
		ct.MaxLatencyNs = lat.Max
	}
	if qd, ok := snap.Histogram("ppe.queue_depth"); ok {
		ct.MaxQueueDepth = qd.Max
	}
	return ct
}

// Render formats the sweep.
func (r LineRateResult) Render() string {
	t := exp.NewTable("Frames", "Offered (Mpps)", "Delivered (Mpps)", "Goodput (Gb/s)", "Drops", "Line rate?")
	for _, p := range r.Points {
		ok := "yes"
		if !p.LineRate {
			ok = "NO"
		}
		t.Add(p.Label,
			fmt.Sprintf("%.3f", p.OfferedPPS/1e6),
			fmt.Sprintf("%.3f", p.DeliveredPPS/1e6),
			fmt.Sprintf("%.3f", p.GoodputGbps),
			p.Drops, ok)
	}
	return "Line-rate verification (§5.1): NAT at 10 Gb/s\n" + t.String()
}

// LineRatePointTrials is one frame-size point across seeds.
type LineRatePointTrials struct {
	Label        string
	FrameSize    int // 0 for IMIX
	OfferedPPS   runner.Summary
	DeliveredPPS runner.Summary
	GoodputGbps  runner.Summary
	Drops        runner.Summary
	// LineRateAll is true when every trial sustained line rate.
	LineRateAll bool
}

// LineRateTrialsResult is the §5.1 sweep over many seeds.
type LineRateTrialsResult struct {
	Trials int
	Points []LineRatePointTrials
}

// lineRateTrials runs the line-rate sweep for ctx.Trials seeds in
// parallel and reduces per frame-size point.
func lineRateTrials(ctx exp.RunContext) (LineRateTrialsResult, error) {
	tr, err := exp.RunTrials(ctx, func(_ int, seed int64) (LineRateResult, error) {
		return lineRateSweep(exp.RunContext{
			Seed: seed, ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
			Telemetry: ctx.Telemetry, Shards: ctx.Shards, Optimize: ctx.Optimize,
		})
	})
	if err != nil {
		return LineRateTrialsResult{}, err
	}
	res := LineRateTrialsResult{Trials: tr.N()}
	for p := range tr.First().Points {
		res.Points = append(res.Points, LineRatePointTrials{
			Label:        tr.First().Points[p].Label,
			FrameSize:    tr.First().Points[p].FrameSize,
			OfferedPPS:   tr.Metric(func(r LineRateResult) float64 { return r.Points[p].OfferedPPS }),
			DeliveredPPS: tr.Metric(func(r LineRateResult) float64 { return r.Points[p].DeliveredPPS }),
			GoodputGbps:  tr.Metric(func(r LineRateResult) float64 { return r.Points[p].GoodputGbps }),
			Drops:        tr.Metric(func(r LineRateResult) float64 { return float64(r.Points[p].Drops) }),
			LineRateAll:  tr.All(func(r LineRateResult) bool { return r.Points[p].LineRate }),
		})
	}
	return res, nil
}

// Render formats the multi-seed sweep.
func (r LineRateTrialsResult) Render() string {
	t := exp.NewTable("Frames", "Offered (Mpps)", "Delivered (Mpps)", "Goodput (Gb/s)", "Line rate?")
	for _, p := range r.Points {
		ok := "yes"
		if !p.LineRateAll {
			ok = "NO"
		}
		t.Add(p.Label,
			fmt.Sprintf("%.3f ± %.3f", p.OfferedPPS.Mean/1e6, p.OfferedPPS.CI95()/1e6),
			fmt.Sprintf("%.3f ± %.3f", p.DeliveredPPS.Mean/1e6, p.DeliveredPPS.CI95()/1e6),
			fmt.Sprintf("%.3f ± %.3f", p.GoodputGbps.Mean, p.GoodputGbps.CI95()),
			ok)
	}
	return fmt.Sprintf("Line-rate verification (§5.1): NAT at 10 Gb/s, %d trials\n", r.Trials) + t.String()
}

// runLineRate is the registered entry point.
func runLineRate(ctx exp.RunContext) (exp.Result, error) {
	env := exp.Envelope{Name: "linerate", Params: ctx.Params()}
	if ctx.EffectiveTrials() > 1 {
		r, err := lineRateTrials(ctx)
		if err != nil {
			return nil, err
		}
		lineRateAll := 1.0
		for _, p := range r.Points {
			if !p.LineRateAll {
				lineRateAll = 0
			}
		}
		env.Detail = r
		env.Metrics = []exp.Metric{
			exp.Scalar("points", "", float64(len(r.Points))),
			exp.Scalar("line_rate_all", "bool", lineRateAll),
		}
		return exp.NewResult(env, r.Render), nil
	}
	r, err := lineRateSweep(ctx)
	if err != nil {
		return nil, err
	}
	lineRateAll, drops := 1.0, 0.0
	for _, p := range r.Points {
		if !p.LineRate {
			lineRateAll = 0
		}
		drops += float64(p.Drops)
	}
	env.Detail = r
	env.Metrics = []exp.Metric{
		exp.Scalar("points", "", float64(len(r.Points))),
		exp.Scalar("line_rate_all", "bool", lineRateAll),
		exp.Scalar("queue_drops", "", drops),
	}
	if ctx.Telemetry {
		// Fold the headline in-cable counters across the sweep into the
		// envelope: total frames and a frame-weighted mean latency.
		var frames, bytes uint64
		var latSum float64
		for _, p := range r.Points {
			if p.Telemetry == nil {
				continue
			}
			frames += p.Telemetry.FramesIn
			bytes += p.Telemetry.BytesIn
			latSum += p.Telemetry.MeanLatencyNs * float64(p.Telemetry.FramesIn)
		}
		env.Metrics = append(env.Metrics,
			exp.Scalar("telemetry_frames_in", "", float64(frames)),
			exp.Scalar("telemetry_bytes_in", "", float64(bytes)))
		if frames > 0 {
			env.Metrics = append(env.Metrics,
				exp.Scalar("telemetry_mean_latency", "ns", latSum/float64(frames)))
		}
	}
	return exp.NewResult(env, r.Render), nil
}
