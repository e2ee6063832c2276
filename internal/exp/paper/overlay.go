package paper

// Overlay mesh experiments: N FlexSFP cables as a rendezvous-coordinated
// tunnel fabric (internal/overlay). Two registered experiments:
//
//   - overlay_linerate: per-mode encap overhead against the 10G
//     line-rate identity of internal/phy — an inner stream paced so the
//     encapsulated frames exactly fill the underlay wire must be
//     delivered loss-free at the far edge.
//
//   - overlay_failover: an 8-cable fabric under chaos (link flaps plus a
//     VCSEL wearing out past the DDM warn threshold). The wearing cable
//     is predictively withdrawn at the rendezvous; the pinned invariants
//     are zero frames delivered to the withdrawn peer after convergence
//     and every surviving flow re-converging onto the backup announcer.
//
// Both run on the parallel simulation core and follow its placement-
// invariance rules, so their JSON envelopes are byte-identical at any
// shard count.

import (
	"fmt"
	"math"
	"net/netip"

	"flexsfp/internal/apps"
	"flexsfp/internal/exp"
	"flexsfp/internal/faults"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/overlay"
	"flexsfp/internal/packet"
	"flexsfp/internal/phy"
	"flexsfp/internal/reliability"
	"flexsfp/internal/trafficgen"
)

// ---------------------------------------------------------------------------
// overlay_linerate

// OverlayLineRatePoint is one (mode, inner size) measurement across a
// two-cable fabric.
type OverlayLineRatePoint struct {
	Label            string
	Mode             string
	InnerSize        int
	OverheadBytes    int
	OverheadFraction float64
	// TheoryPPS is the phy identity: the encapsulated frame rate that
	// exactly fills the 10G underlay.
	TheoryPPS        float64
	OfferedPPS       float64
	DeliveredPPS     float64
	InnerGoodputGbps float64
	UnderlayTxFrames uint64
	Drops            uint64
	LineRate         bool
}

// OverlayLineRateResult is the full mode × size sweep.
type OverlayLineRateResult struct {
	Points []OverlayLineRatePoint
}

// meshOverheadBytes is the encap growth per mode: GRE (with key)
// eth+ip+gre = 14+20+8; VXLAN eth+ip+udp+vxlan = 14+20+8+8.
func meshOverheadBytes(mode uint8) int {
	if mode == apps.MeshModeVXLAN {
		return 50
	}
	return 42
}

type overlayLineRateCase struct {
	label string
	mode  uint8
	size  int
}

func overlayLineRateCases() []overlayLineRateCase {
	return []overlayLineRateCase{
		{"gre-64B", apps.MeshModeGRE, 64},
		{"gre-256B", apps.MeshModeGRE, 256},
		{"gre-1024B", apps.MeshModeGRE, 1024},
		{"vxlan-64B", apps.MeshModeVXLAN, 64},
		{"vxlan-256B", apps.MeshModeVXLAN, 256},
		{"vxlan-1024B", apps.MeshModeVXLAN, 1024},
	}
}

func overlayLineRate(ctx exp.RunContext) (OverlayLineRateResult, error) {
	shards := ctx.Shards
	if shards < 1 {
		shards = 1
	}
	cases := overlayLineRateCases()
	sh := netsim.NewSharded(ctx.Seed, shards)

	type caseWorld struct {
		fab        *overlay.Fabric
		gen        *trafficgen.Generator
		recvFrames uint64 // written on cable B's shard only
		recvBytes  uint64
	}
	worlds := make([]caseWorld, len(cases))

	// Wiring pass: each case is an independent two-cable fabric on its
	// own pair of logical partitions. Encap A→B uses B's receive mode,
	// so both cables carry the case mode.
	for i, tc := range cases {
		w := &worlds[i]
		mode := tc.mode
		fab, err := overlay.NewFabric(overlay.FabricSpec{
			Sh: sh, Cables: 2, Base: 2 * i,
			Mode: func(int) uint8 { return mode },
			EdgeSink: func(c int, data []byte) {
				if c == 1 {
					w.recvFrames++
					w.recvBytes += uint64(len(data))
				}
			},
		})
		if err != nil {
			return OverlayLineRateResult{}, err
		}
		if err := fab.RegisterAll(); err != nil {
			return OverlayLineRateResult{}, err
		}
		w.fab = fab
	}
	epoch := sh.AlignClocks()

	// Measurement pass: cable A's edge offers inner frames paced so the
	// encapsulated stream is exactly the underlay's line rate.
	for i, tc := range cases {
		w := &worlds[i]
		a := w.fab.Cables[0]
		// Pace at the line-rate identity, quantized to the simulator's
		// whole-nanosecond inter-arrival grid from below — a truncated
		// gap would offer fractionally above wire rate and slowly flood
		// the underlay queue.
		pps := phy.LineRatePPS(phy.DataRateBps, tc.size+meshOverheadBytes(tc.mode))
		pps = 1e9 / math.Ceil(1e9/pps)
		wire := netsim.NewLink(a.Sim, phy.DataRateBps, 0, a.Mod.RxEdge)
		w.gen = trafficgen.New(a.Sim, trafficgen.Config{
			PPS:   pps,
			Sizes: []trafficgen.IMIXEntry{{Size: tc.size, Weight: 1}},
			Flows: 32,
			SrcIP: netip.MustParseAddr("10.200.1.1"),
			DstIP: netip.MustParseAddr("10.200.2.9"),
			Rand:  sh.Stream(2 * i),
		}, func(b []byte) bool { return wire.Send(b) })
		w.gen.Run(0)
	}
	window := netsim.Duration(netsim.Millisecond)
	sh.RunUntil(epoch.Add(window))
	for i := range worlds {
		worlds[i].gen.Stop()
	}
	sh.RunUntil(epoch.Add(window + 100*netsim.Microsecond))
	ctx.Progressf("overlay_linerate: %d shards: %v", sh.Shards(), sh.Stats())

	res := OverlayLineRateResult{Points: make([]OverlayLineRatePoint, len(cases))}
	for i, tc := range cases {
		w := &worlds[i]
		a, b := w.fab.Cables[0], w.fab.Cables[1]
		ovh := meshOverheadBytes(tc.mode)
		link := a.Links[1].Stats()
		drops := a.Mod.Engine().Stats().QueueDrop + b.Mod.Engine().Stats().QueueDrop +
			link.Drops + link.DownDrops + a.NoLinkDrops + b.NoLinkDrops
		res.Points[i] = OverlayLineRatePoint{
			Label:            tc.label,
			Mode:             modeLabel(tc.mode),
			InnerSize:        tc.size,
			OverheadBytes:    ovh,
			OverheadFraction: float64(ovh) / float64(tc.size+ovh),
			TheoryPPS:        phy.LineRatePPS(phy.DataRateBps, tc.size+ovh),
			OfferedPPS:       float64(w.gen.Sent) / window.Seconds(),
			DeliveredPPS:     float64(w.recvFrames) / window.Seconds(),
			InnerGoodputGbps: float64(w.recvBytes) * 8 / window.Seconds() / 1e9,
			UnderlayTxFrames: link.TxFrames,
			Drops:            drops,
			LineRate:         drops == 0 && w.recvFrames > 0,
		}
	}
	return res, nil
}

func modeLabel(mode uint8) string {
	if mode == apps.MeshModeVXLAN {
		return apps.TunnelVXLAN
	}
	return apps.TunnelGRE
}

// Render formats the sweep.
func (r OverlayLineRateResult) Render() string {
	t := exp.NewTable("Case", "Overhead", "Theory (Mpps)", "Offered (Mpps)", "Delivered (Mpps)", "Inner Gb/s", "Line rate?")
	for _, p := range r.Points {
		ok := "yes"
		if !p.LineRate {
			ok = "NO"
		}
		t.Add(p.Label,
			fmt.Sprintf("%dB (%.1f%%)", p.OverheadBytes, p.OverheadFraction*100),
			fmt.Sprintf("%.3f", p.TheoryPPS/1e6),
			fmt.Sprintf("%.3f", p.OfferedPPS/1e6),
			fmt.Sprintf("%.3f", p.DeliveredPPS/1e6),
			fmt.Sprintf("%.3f", p.InnerGoodputGbps),
			ok)
	}
	return "Overlay mesh line rate: encap overhead across a 2-cable fabric\n" + t.String()
}

func runOverlayLineRate(ctx exp.RunContext) (exp.Result, error) {
	r, err := overlayLineRate(ctx)
	if err != nil {
		return nil, err
	}
	env := exp.Envelope{Name: "overlay_linerate", Params: ctx.Params()}
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
		exp.Scalar("drops", "", drops),
	}
	return exp.NewResult(env, r.Render), nil
}

// ---------------------------------------------------------------------------
// overlay_failover

// OverlayFlowRecovery is one flow whose route failed over: a sender's
// traffic toward the withdrawn cable's prefix.
type OverlayFlowRecovery struct {
	Sender    int
	Recovered bool
	LatencyUs float64
}

// OverlayFailoverResult is the chaos run's measured outcome.
type OverlayFailoverResult struct {
	Cables                  int
	Victim                  int
	Backup                  int
	VictimTTFYears          float64
	WithdrawAtUs            float64
	WearAtWithdraw          float64
	BlastRadiusFlows        int
	RecoveredFlows          int
	RecoveredFraction       float64
	FramesToWithdrawnPost   uint64
	RerouteLatencyUsMean    float64
	RerouteLatencyUsMax     float64
	SurvivingFlowsDelivered int
	SurvivingFlowsTotal     int
	FlapsInjected           int
	DownDrops               uint64
	QueueDrops              uint64
	NoLinkDrops             uint64
	FramesSent              uint64
	FramesDelivered         uint64
	Flows                   []OverlayFlowRecovery
}

const (
	failoverCables   = 8
	failoverWindows  = 20
	failoverWindow   = 100 * netsim.Microsecond
	failoverDrain    = 5 * netsim.Microsecond
	failoverPPS      = 100_000
	failoverFrameLen = 256
	// Dedicated partition-stream lanes (beyond the cable partitions).
	failoverTTFStream  = 1000
	failoverFlapStream = 2000
	// Accelerated aging: the run's full span maps onto twice the
	// victim's TTF, so the DDM warn threshold is crossed mid-run.
	failoverAgingFactor = 2.0
)

func overlayFailover(ctx exp.RunContext) (OverlayFailoverResult, error) {
	shards := ctx.Shards
	if shards < 1 {
		shards = 1
	}
	n := failoverCables
	sh := netsim.NewSharded(ctx.Seed, shards)

	// Per-cable receive accounting, written only from that cable's shard
	// goroutine; the host reads it at window barriers.
	type recvState struct {
		marked     bool
		markAt     netsim.Time
		total      uint64
		sinceMark  uint64
		count      [failoverCables]uint64
		firstSince [failoverCables]netsim.Time
		haveFirst  [failoverCables]bool
	}
	recv := make([]*recvState, n)
	sims := make([]*netsim.Simulator, n)
	for i := range recv {
		recv[i] = &recvState{}
		sims[i] = sh.Shard(sh.ShardFor(i))
	}

	fab, err := overlay.NewFabric(overlay.FabricSpec{
		Sh: sh, Cables: n,
		Prefixes: func(i int) []mgmt.OverlayPrefix {
			// Own /24 as primary, plus backup ownership of the previous
			// cable's prefix: cable (v+1)%n inherits v's prefix on
			// withdrawal.
			prev := overlay.DefaultPrefix((i + n - 1) % n)
			prev.Priority = 1
			return []mgmt.OverlayPrefix{overlay.DefaultPrefix(i), prev}
		},
		EdgeSink: func(i int, data []byte) {
			if len(data) < 34 {
				return
			}
			s := int(data[28]) - 1 // sender = inner source IP's third octet
			if s < 0 || s >= failoverCables {
				return
			}
			r := recv[i]
			r.total++
			r.count[s]++
			if r.marked {
				now := sims[i].Now()
				if now >= r.markAt {
					r.sinceMark++
					if !r.haveFirst[s] {
						r.haveFirst[s] = true
						r.firstSince[s] = now
					}
				}
			}
		},
	})
	if err != nil {
		return OverlayFailoverResult{}, err
	}
	if err := fab.RegisterAll(); err != nil {
		return OverlayFailoverResult{}, err
	}

	// The wearing laser: per-cable TTFs from dedicated partition
	// streams; the victim is the earliest failure.
	model := reliability.DefaultVCSEL()
	victim, ttf := 0, 0.0
	for i := 0; i < n; i++ {
		t := model.SampleTTFYears(sh.Stream(failoverTTFStream + i))
		if i == 0 || t < ttf {
			victim, ttf = i, t
		}
	}
	backup := (victim + 1) % n
	warnAt := reliability.DefaultFleet().WarnDegradation

	epoch := sh.AlignClocks()
	total := netsim.Duration(failoverWindows) * failoverWindow

	// Traffic: every cable streams template frames to all seven foreign
	// prefixes, the sender identified by its inner source address.
	gens := make([]*trafficgen.Generator, n)
	for i := 0; i < n; i++ {
		var templates []trafficgen.WeightedFrame
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			templates = append(templates, trafficgen.WeightedFrame{Weight: 1, Frame: packet.MustBuild(packet.Spec{
				SrcMAC:  packet.MustMAC("02:0e:00:00:00:01"),
				DstMAC:  packet.MustMAC("02:0e:00:00:00:02"),
				SrcIP:   netip.MustParseAddr(fmt.Sprintf("10.200.%d.1", i+1)),
				DstIP:   netip.MustParseAddr(fmt.Sprintf("10.200.%d.9", j+1)),
				SrcPort: 1111, DstPort: 2222,
				PadTo: failoverFrameLen,
			})})
		}
		c := fab.Cables[i]
		wire := netsim.NewLink(c.Sim, phy.DataRateBps, 0, c.Mod.RxEdge)
		gens[i] = trafficgen.New(c.Sim, trafficgen.Config{
			PPS: failoverPPS, Templates: templates, Rand: sh.Stream(i),
		}, func(b []byte) bool { return wire.Send(b) })
		gens[i].Run(0)
	}

	// Chaos: deterministic link flaps on the non-victim underlay.
	inj := faults.New(ctx.Seed, faults.Rates{})
	flaps := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || i == victim || j == victim {
				continue
			}
			rng := sh.Stream(failoverFlapStream + i*n + j)
			if rng.Float64() < 0.3 {
				downAt := failoverWindow + netsim.Duration(rng.Int63n(int64(16*failoverWindow)))
				inj.FlapLink(sims[i], fab.Cables[i].Links[j], downAt, 40*netsim.Microsecond)
				flaps++
			}
		}
	}

	// Run in windows; at each barrier evaluate the victim's DDM trend
	// under accelerated aging and withdraw once it crosses the warn
	// threshold.
	res := OverlayFailoverResult{
		Cables: n, Victim: victim, Backup: backup,
		VictimTTFYears: ttf, FlapsInjected: flaps,
	}
	withdrawn := false
	var withdrawAt netsim.Time
	for w := 1; w <= failoverWindows; w++ {
		t := epoch.Add(netsim.Duration(w) * failoverWindow)
		sh.RunUntil(t)
		if withdrawn {
			continue
		}
		frac := t.Sub(epoch).Seconds() / total.Seconds()
		wear := model.DegradationAt(frac*failoverAgingFactor*ttf, ttf)
		if wear < warnAt {
			continue
		}
		// Predictive withdrawal: the backup's controller reports the
		// victim dead, everyone re-syncs, then the victim's transport
		// goes dark and its offered load stops.
		if err := fab.Withdraw(backup, fab.Cables[victim].Name); err != nil {
			return OverlayFailoverResult{}, err
		}
		if err := fab.SyncAll(); err != nil {
			return OverlayFailoverResult{}, err
		}
		fab.SetCableLinks(victim, false)
		gens[victim].Stop()
		withdrawn, withdrawAt = true, t
		res.WithdrawAtUs = float64(t.Sub(epoch)) / 1e3
		res.WearAtWithdraw = wear
		// Mark every survivor at the withdrawal instant; the victim is
		// marked after a drain window so pre-withdrawal frames still in
		// flight don't count against the post-convergence invariant.
		for i, r := range recv {
			if i != victim {
				r.marked, r.markAt = true, t
			}
		}
		sh.RunUntil(t.Add(failoverDrain))
		recv[victim].marked, recv[victim].markAt = true, t.Add(failoverDrain)
	}
	if !withdrawn {
		return OverlayFailoverResult{}, fmt.Errorf("overlay_failover: wear never crossed the warn threshold")
	}
	for i := 0; i < n; i++ {
		if i != victim {
			gens[i].Stop()
		}
	}
	sh.RunUntil(epoch.Add(total + failoverWindow))
	ctx.Progressf("overlay_failover: %d shards: %v", sh.Shards(), sh.Stats())

	// Invariant 1: nothing reached the withdrawn cable's edge after
	// convergence.
	res.FramesToWithdrawnPost = recv[victim].sinceMark

	// Invariant 2: every affected flow (sender ∉ {victim, backup}
	// toward the victim's prefix) re-converged onto the backup.
	var latSum, latMax float64
	for s := 0; s < n; s++ {
		if s == victim || s == backup {
			continue
		}
		fr := OverlayFlowRecovery{Sender: s}
		if recv[backup].haveFirst[s] {
			fr.Recovered = true
			fr.LatencyUs = float64(recv[backup].firstSince[s].Sub(withdrawAt)) / 1e3
			latSum += fr.LatencyUs
			if fr.LatencyUs > latMax {
				latMax = fr.LatencyUs
			}
			res.RecoveredFlows++
		}
		res.Flows = append(res.Flows, fr)
	}
	res.BlastRadiusFlows = n - 1 // every sender routed toward the victim's prefix
	if len(res.Flows) > 0 {
		res.RecoveredFraction = float64(res.RecoveredFlows) / float64(len(res.Flows))
	}
	if res.RecoveredFlows > 0 {
		res.RerouteLatencyUsMean = latSum / float64(res.RecoveredFlows)
		res.RerouteLatencyUsMax = latMax
	}

	// Continuity: unaffected flows keep delivering after the event.
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		for s := 0; s < n; s++ {
			if s == victim || s == r {
				continue
			}
			res.SurvivingFlowsTotal++
			if recv[r].haveFirst[s] {
				res.SurvivingFlowsDelivered++
			}
		}
	}

	for i, c := range fab.Cables {
		res.QueueDrops += c.Mod.Engine().Stats().QueueDrop
		res.NoLinkDrops += c.NoLinkDrops
		res.FramesSent += gens[i].Sent
		res.FramesDelivered += recv[i].total
		for _, l := range c.Links {
			if l == nil {
				continue
			}
			st := l.Stats()
			res.DownDrops += st.DownDrops
			res.QueueDrops += st.Drops
		}
	}
	return res, nil
}

// Render formats the failover run.
func (r OverlayFailoverResult) Render() string {
	t := exp.NewTable("Flow (sender)", "Recovered", "Re-route latency (µs)")
	for _, f := range r.Flows {
		ok := "yes"
		if !f.Recovered {
			ok = "NO"
		}
		t.Add(fmt.Sprintf("cable-%d → victim prefix", f.Sender), ok, fmt.Sprintf("%.1f", f.LatencyUs))
	}
	return fmt.Sprintf(
		"Overlay mesh failover: %d cables, victim cable-%d (TTF %.1fy) withdrawn at %.0fµs (wear %.2f)\n"+
			"frames to withdrawn peer post-convergence: %d; recovered %d/%d affected flows; "+
			"surviving flows delivering: %d/%d; flaps injected: %d\n",
		r.Cables, r.Victim, r.VictimTTFYears, r.WithdrawAtUs, r.WearAtWithdraw,
		r.FramesToWithdrawnPost, r.RecoveredFlows, len(r.Flows),
		r.SurvivingFlowsDelivered, r.SurvivingFlowsTotal, r.FlapsInjected) + t.String()
}

func runOverlayFailover(ctx exp.RunContext) (exp.Result, error) {
	r, err := overlayFailover(ctx)
	if err != nil {
		return nil, err
	}
	env := exp.Envelope{Name: "overlay_failover", Params: ctx.Params()}
	env.Detail = r
	env.Metrics = []exp.Metric{
		exp.Scalar("cables", "", float64(r.Cables)),
		exp.Scalar("victim_index", "", float64(r.Victim)),
		exp.Scalar("withdraw_at", "us", r.WithdrawAtUs),
		exp.Scalar("blast_radius_flows", "", float64(r.BlastRadiusFlows)),
		exp.Scalar("recovered_flows", "", float64(r.RecoveredFlows)),
		exp.Scalar("recovered_fraction", "", r.RecoveredFraction),
		exp.Scalar("frames_to_withdrawn_post", "", float64(r.FramesToWithdrawnPost)),
		exp.Scalar("reroute_latency_mean", "us", r.RerouteLatencyUsMean),
		exp.Scalar("reroute_latency_max", "us", r.RerouteLatencyUsMax),
		exp.Scalar("link_flaps", "", float64(r.FlapsInjected)),
		exp.Scalar("down_drops", "", float64(r.DownDrops)),
		exp.Scalar("frames_delivered", "", float64(r.FramesDelivered)),
	}
	return exp.NewResult(env, r.Render), nil
}
