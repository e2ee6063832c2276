package netsim

import "flexsfp/internal/telemetry"

// AttachTelemetry registers the simulator's event-loop instruments into
// reg under prefix (e.g. "sim"):
//
//   - <prefix>.pending_events, <prefix>.fired_events, <prefix>.now_ns —
//     gauges evaluated at snapshot time, zero hot-path cost;
//   - <prefix>.event_gap_ns — a histogram of how far the clock advances
//     between consecutive fired events, the event-loop lag signal: dense
//     same-timestamp backlogs pile into the low bins, an idle loop jumps
//     into the high ones.
//
// The gap histogram adds one nil-check branch per Step when attached and
// records zero-alloc/lock-free; an unattached simulator is unchanged.
func (s *Simulator) AttachTelemetry(reg *telemetry.Registry, prefix string) {
	reg.GaugeFunc(prefix+".pending_events", func() float64 { return float64(s.Pending()) })
	reg.GaugeFunc(prefix+".fired_events", func() float64 { return float64(s.Fired()) })
	reg.GaugeFunc(prefix+".now_ns", func() float64 { return float64(s.Now()) })
	// 1 ns .. ~1 ms in powers of four.
	s.gapHist = reg.Histogram(prefix+".event_gap_ns", telemetry.ExpBuckets(1, 4, 10))
	s.lastFire = s.now
}

// AttachTelemetry registers the window loop's counters (Stats) into reg
// under prefix (e.g. "pdes") as gauges evaluated at snapshot time:
// <prefix>.windows, .events, .imbalance, .spin_waits, .yield_waits,
// .park_waits, .portal_msgs and .portal_spills. Like Stats, a gauge must
// be read between runs: the caller snapshots reg under the lock that
// serializes its Run calls.
func (s *Sharded) AttachTelemetry(reg *telemetry.Registry, prefix string) {
	for _, g := range []struct {
		name string
		val  func(ShardedStats) uint64
	}{
		{"windows", func(st ShardedStats) uint64 { return st.Windows }},
		{"events", func(st ShardedStats) uint64 { return st.Events }},
		{"spin_waits", func(st ShardedStats) uint64 { return st.SpinWaits }},
		{"yield_waits", func(st ShardedStats) uint64 { return st.YieldWaits }},
		{"park_waits", func(st ShardedStats) uint64 { return st.ParkWaits }},
		{"portal_msgs", func(st ShardedStats) uint64 { return st.PortalMsgs }},
		{"portal_spills", func(st ShardedStats) uint64 { return st.PortalSpills }},
	} {
		val := g.val
		reg.GaugeFunc(prefix+"."+g.name, func() float64 { return float64(val(s.Stats())) })
	}
	reg.GaugeFunc(prefix+".imbalance", func() float64 { return s.Stats().Imbalance() })
}
