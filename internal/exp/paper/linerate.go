package paper

import (
	"fmt"
	"math/rand"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/exp"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
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

// runLineRateCase measures one frame-size point on its own simulator.
func runLineRateCase(ctx exp.RunContext, tc lineRateCase) (LineRatePoint, error) {
	sim := build.NewSim(ctx.Seed)
	mod, _, err := build.Module(sim, build.ModuleSpec{
		Name: "lr-dut", DeviceID: 1, Shell: hls.TwoWayCore, App: "nat",
		ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
		Optimize: ctx.Optimize,
		Config: apps.NATConfig{Mappings: []apps.NATMapping{
			{Internal: "10.1.0.1", External: "203.0.113.1"},
		}},
	})
	if err != nil {
		return LineRatePoint{}, err
	}
	// Instrumentation covers the module/PPE counters only: the per-event
	// simulator histogram (Simulator.AttachTelemetry) costs ~30ns on every
	// scheduled event, which is ~8% of this sweep's wall time — too hot
	// for a performance measurement. It stays a daemon-side facility.
	var reg *telemetry.Registry
	if ctx.Telemetry {
		reg = telemetry.New()
		mod.AttachTelemetry(reg)
	}
	meter := netsim.NewRateMeter(sim)
	mod.SetTx(1, func(b []byte) {
		meter.Observe(len(b))
		trafficgen.PutBuffer(b)
	})
	mod.SetTx(0, trafficgen.PutBuffer)

	// Offered rate: line rate for the mean frame size of the mix.
	mean := 64.0
	if tc.size > 0 {
		mean = float64(tc.size)
	} else {
		total, weight := 0, 0
		for _, e := range tc.sizes {
			total += e.Size * e.Weight
			weight += e.Weight
		}
		mean = float64(total) / float64(weight)
	}
	pps := 10e9 / ((mean + 20) * 8)
	// Traffic reaches the module through an actual 10G wire: the
	// link's serialization enforces the physical per-frame spacing a
	// real tester is bound by (a mean-paced generator would otherwise
	// burst mixed-size traffic above wire rate).
	wire := netsim.NewLink(sim, 10_000_000_000, 0, mod.RxEdge)
	gen := trafficgen.New(sim, trafficgen.Config{
		PPS: pps, Sizes: tc.sizes, Flows: 32,
	}, func(b []byte) bool {
		return wire.Send(b)
	})
	gen.Run(0)
	sim.RunFor(netsim.Millisecond)
	gen.Stop()
	sim.RunFor(100 * netsim.Microsecond)

	deliveredPPS := float64(meter.Frames) / netsim.Duration(netsim.Millisecond).Seconds()
	p := LineRatePoint{
		Label:        tc.label,
		FrameSize:    tc.size,
		OfferedPPS:   float64(gen.Sent) / netsim.Duration(netsim.Millisecond).Seconds(),
		DeliveredPPS: deliveredPPS,
		GoodputGbps:  float64(meter.Bytes) * 8 / netsim.Duration(netsim.Millisecond).Seconds() / 1e9,
		Drops:        mod.Engine().Stats().QueueDrop,
		LineRate:     mod.Engine().Stats().QueueDrop == 0,
	}
	if reg != nil {
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
		p.Telemetry = ct
	}
	return p, nil
}

// LineRateExperiment drives the NAT module at 10G line rate across frame
// sizes (the §5.1 "simple end-to-end test, which confirmed line-rate
// performance"). Each case runs on its own simulator with the same seed,
// so the cases fan out across workers and the sweep matches the old
// sequential loop exactly.
func LineRateExperiment(seed int64) (LineRateResult, error) {
	return lineRateSingle(exp.RunContext{Seed: seed})
}

func lineRateSingle(ctx exp.RunContext) (LineRateResult, error) {
	if ctx.Shards > 0 {
		return lineRateSharded(ctx)
	}
	cases := lineRateCases()
	points, err := runner.Map(len(cases), runner.Options{Seed: ctx.Seed, Parallelism: ctx.Parallelism},
		func(i int, _ *rand.Rand) (LineRatePoint, error) {
			return runLineRateCase(ctx, cases[i])
		})
	if err != nil {
		return LineRateResult{}, err
	}
	return LineRateResult{Points: points}, nil
}

// lineRateSharded runs the sweep on the parallel simulation core: the
// cases are logical partitions placed round-robin over ctx.Shards event
// heaps and advanced together. The cases never interact, so one
// conservative window covers the whole run and the shards execute wall-
// clock-parallel with no barrier traffic.
//
// Determinism follows the Sharded placement-invariance rules: each case's
// generator draws from its partition stream (never the shard's ambient
// RNG), and every absolute timestamp in a case's world is the common
// post-boot epoch plus a shift-invariant offset — link and engine
// picosecond arithmetic is linear in whole-nanosecond shifts — so the
// sweep's JSON is byte-identical at any shard count. (It intentionally
// does not match the legacy Shards=0 path, which seeds each case's
// private simulator differently; the goldens pin the legacy path.)
func lineRateSharded(ctx exp.RunContext) (LineRateResult, error) {
	cases := lineRateCases()
	sh := netsim.NewSharded(ctx.Seed, ctx.Shards)

	type caseWorld struct {
		sim   *netsim.Simulator
		mod   *core.Module
		meter *netsim.RateMeter
		gen   *trafficgen.Generator
		reg   *telemetry.Registry
	}
	worlds := make([]caseWorld, len(cases))

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
		w := &worlds[i]
		w.sim, w.mod = sim, mod
		if ctx.Telemetry {
			w.reg = telemetry.New()
			mod.AttachTelemetry(w.reg)
		}
		w.meter = netsim.NewRateMeter(sim)
		meter := w.meter
		mod.SetTx(1, func(b []byte) {
			meter.Observe(len(b))
			trafficgen.PutBuffer(b)
		})
		mod.SetTx(0, trafficgen.PutBuffer)
	}
	epoch := sh.AlignClocks()

	// Measurement pass: identical shape and arithmetic to runLineRateCase,
	// with all cases sharing the 1 ms window that starts at the epoch.
	for i, tc := range cases {
		mean := 64.0
		if tc.size > 0 {
			mean = float64(tc.size)
		} else {
			total, weight := 0, 0
			for _, e := range tc.sizes {
				total += e.Size * e.Weight
				weight += e.Weight
			}
			mean = float64(total) / float64(weight)
		}
		pps := 10e9 / ((mean + 20) * 8)
		w := &worlds[i]
		wire := netsim.NewLink(w.sim, 10_000_000_000, 0, w.mod.RxEdge)
		w.gen = trafficgen.New(w.sim, trafficgen.Config{
			PPS: pps, Sizes: tc.sizes, Flows: 32,
			Rand: sh.Stream(i),
		}, func(b []byte) bool {
			return wire.Send(b)
		})
		w.gen.Run(0)
	}
	sh.RunUntil(epoch.Add(netsim.Millisecond))
	for i := range worlds {
		worlds[i].gen.Stop()
	}
	sh.RunUntil(epoch.Add(netsim.Millisecond + 100*netsim.Microsecond))
	ctx.Progressf("linerate: %d shards: %v", sh.Shards(), sh.Stats())

	res := LineRateResult{Points: make([]LineRatePoint, len(cases))}
	for i, tc := range cases {
		w := &worlds[i]
		p := LineRatePoint{
			Label:        tc.label,
			FrameSize:    tc.size,
			OfferedPPS:   float64(w.gen.Sent) / netsim.Duration(netsim.Millisecond).Seconds(),
			DeliveredPPS: float64(w.meter.Frames) / netsim.Duration(netsim.Millisecond).Seconds(),
			GoodputGbps:  float64(w.meter.Bytes) * 8 / netsim.Duration(netsim.Millisecond).Seconds() / 1e9,
			Drops:        w.mod.Engine().Stats().QueueDrop,
			LineRate:     w.mod.Engine().Stats().QueueDrop == 0,
		}
		if w.reg != nil {
			snap := w.reg.Snapshot()
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
			p.Telemetry = ct
		}
		res.Points[i] = p
	}
	return res, nil
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

// LineRateExperimentTrials runs the line-rate sweep for trials seeds in
// parallel and reduces per frame-size point.
func LineRateExperimentTrials(rootSeed int64, trials, parallelism int) (LineRateTrialsResult, error) {
	return lineRateTrials(exp.RunContext{Seed: rootSeed, Trials: trials, Parallelism: parallelism})
}

func lineRateTrials(ctx exp.RunContext) (LineRateTrialsResult, error) {
	tr, err := exp.RunTrials(ctx, func(_ int, seed int64) (LineRateResult, error) {
		return lineRateSingle(exp.RunContext{
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
	r, err := lineRateSingle(ctx)
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
