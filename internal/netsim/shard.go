package netsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"flexsfp/internal/runner"
)

// Sharded is the conservatively-synchronized parallel simulation core: a
// topology partitioned across shards, each a full single-threaded
// Simulator (own event heap, clock, and SplitMix64-derived RNG stream),
// advanced together in bounded time windows.
//
// Synchronization is the classic lookahead/null-message discipline
// reduced to a window barrier: every cross-shard channel (Portal,
// usually a Link's propagation delay) declares a fixed positive latency,
// and the minimum latency L over all channels is the global lookahead. If
// the earliest pending event anywhere sits at time T, every shard may
// safely execute the window [T, T+L) in parallel — a message sent inside
// the window cannot arrive before T+L. At the window barrier, queued
// cross-shard messages are merged into the destination heaps and the next
// window starts. A topology with no cross-shard channels (disconnected
// partitions) has infinite lookahead: one window runs everything.
//
// Determinism is by construction, at any shard count including one:
//
//   - Shard assignment is a pure function of the logical partition index
//     (ShardFor), and per-shard seeds derive from (seed, shard) through
//     runner.TrialSeed.
//   - Model randomness must come from partition-keyed streams (Stream),
//     never from a shard's ambient RNG, so a partition's draws do not
//     depend on which shard hosts it or on its co-tenants.
//   - Cross-shard messages merge in (arrival time, portal id) order —
//     portal ids follow wiring order, which the topology fixes — and
//     window boundaries are global, so the interleaving of arrivals with
//     local events is identical for every shard count.
//   - Partitions may interact only through portals; two partitions must
//     never share mutable state directly.
//
// Under these rules the same seed produces byte-identical experiment
// output for shards ∈ {1, 2, 4, 8, ...}, which the golden-trace tests
// pin.
type Sharded struct {
	seed      int64
	shards    []*Simulator
	portals   []*Portal
	inbound   [][]*Portal // per destination shard, in portal-id order
	lookahead Duration    // min portal latency; 0 until a portal exists

	// Window-loop counters: written by the coordinator at barriers only.
	stats   ShardedStats
	firedAt []uint64 // per shard, Simulator.fired at the last barrier
}

// maxTime is the effectively-unbounded window limit used when no portal
// constrains progress.
const maxTime = Time(1) << 62

// streamSalt separates partition-stream seed derivation (Stream) from
// per-shard seed derivation (NewSharded), so a partition's stream never
// collides with a shard's ambient RNG.
const streamSalt = 0x73747265616d73 // "streams"

// NewSharded creates a parallel simulation world of n shards (clamped to
// at least one). Shard i starts at time zero with an RNG seeded
// runner.TrialSeed(seed, i).
func NewSharded(seed int64, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{
		seed:    seed,
		shards:  make([]*Simulator, n),
		inbound: make([][]*Portal, n),
		firedAt: make([]uint64, n),
	}
	// Shards are written on every event by different cores; allocated one
	// by one they would sit back to back and share cache lines.
	sims := make([]struct {
		_   [cacheLine]byte
		sim Simulator
	}, n)
	for i := range s.shards {
		s.shards[i] = &sims[i].sim
		s.shards[i].rng = rand.New(rand.NewSource(runner.TrialSeed(seed, i)))
	}
	return s
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns shard i's Simulator. Entities built on it must only be
// touched from its own event callbacks once a Run variant is active.
func (s *Sharded) Shard(i int) *Simulator { return s.shards[i] }

// ShardFor maps a logical partition index to its home shard — the
// deterministic round-robin assignment every sharded workload uses.
func (s *Sharded) ShardFor(partition int) int { return partition % len(s.shards) }

// Stream returns the deterministic random stream for one logical
// partition. It is a pure function of (seed, partition) — independent of
// the shard count and of shard placement — which is what keeps sharded
// experiment output byte-identical at any parallelism. Model code under
// Sharded must draw from here, not from Simulator.Rand.
func (s *Sharded) Stream(partition int) *rand.Rand {
	return runner.TrialRand(s.seed^streamSalt, partition)
}

// Pending returns the total number of events waiting across all shards.
func (s *Sharded) Pending() int {
	n := 0
	for _, sim := range s.shards {
		n += sim.Pending()
	}
	return n
}

// Fired returns the total number of events executed across all shards.
func (s *Sharded) Fired() uint64 {
	var n uint64
	for _, sim := range s.shards {
		n += sim.Fired()
	}
	return n
}

// Now returns the maximum shard clock — the frontier the world has
// reached. Individual shards may trail it by up to the lookahead.
func (s *Sharded) Now() Time {
	var max Time
	for _, sim := range s.shards {
		if sim.Now() > max {
			max = sim.Now()
		}
	}
	return max
}

// AlignClocks advances every shard to the maximum shard clock (executing
// any events at or before it) and returns that common epoch. Sharded
// workloads call it after wiring-time activity (module boots consume
// different amounts of simulated time on different shards) so that
// measurement windows start at the same instant everywhere. Must be
// called between Run invocations, never from inside an event.
func (s *Sharded) AlignClocks() Time {
	epoch := s.Now()
	for _, sim := range s.shards {
		sim.RunUntil(epoch)
	}
	return epoch
}

// Connect creates a cross-shard message channel from src to dst with the
// given fixed latency. The latency must be positive: it is the channel's
// contribution to the conservative lookahead, and a zero-latency channel
// would forbid any parallel progress. deliver runs on the destination
// shard at the arrival time. Wiring-time only — portals must exist before
// the first Run variant and their creation order must be a fixed property
// of the topology (it breaks arrival-time ties).
func (s *Sharded) Connect(src, dst int, latency Duration, deliver func([]byte)) *Portal {
	if latency <= 0 {
		panic("netsim: portal latency must be positive (it is the conservative lookahead)")
	}
	if src < 0 || src >= len(s.shards) || dst < 0 || dst >= len(s.shards) {
		panic(fmt.Sprintf("netsim: portal %d→%d outside shard range [0,%d)", src, dst, len(s.shards)))
	}
	p := &Portal{
		id:      len(s.portals),
		src:     src,
		dst:     dst,
		latency: latency,
		srcSim:  s.shards[src],
		dstSim:  s.shards[dst],
		deliver: deliver,
		ring:    make([]portalMsg, portalRingSize),
	}
	s.portals = append(s.portals, p)
	s.inbound[dst] = append(s.inbound[dst], p)
	if s.lookahead == 0 || latency < s.lookahead {
		s.lookahead = latency
	}
	return p
}

// ConnectLink builds a Link on the src shard whose frames cross to dst
// through a portal: serialization happens on src as usual, and the
// propagation delay rides the portal as lookahead, delivering on the dst
// shard. prop must be positive (see Connect).
func (s *Sharded) ConnectLink(src, dst int, bitsPerSec int64, prop Duration, deliver func([]byte)) *Link {
	p := s.Connect(src, dst, prop, deliver)
	l := NewLink(s.shards[src], bitsPerSec, prop, nil)
	l.remote = p
	return l
}

// Run executes events on all shards until every heap is empty and every
// portal has drained.
func (s *Sharded) Run() { s.run(0, false) }

// RunUntil executes all events at or before t on every shard, then
// advances every shard clock to exactly t.
func (s *Sharded) RunUntil(t Time) { s.run(t, true) }

// RunFor executes events for a span d beyond the current frontier (Now).
func (s *Sharded) RunFor(d Duration) { s.RunUntil(s.Now().Add(d)) }

// run is the conservative window loop. Each round: find the earliest
// pending event time T anywhere, grant every shard the window [T, end)
// where end = T + lookahead (unbounded when no portals exist), execute
// the windows in parallel, then merge queued cross-shard messages at the
// barrier. Progress is guaranteed because the event at T always fires.
//
// The coordinator executes shard 0's window itself; shards 1..n-1 each
// have a worker goroutine that lives for this call. Hand-off both ways is
// a gate (see gate): a window costs a few cache-line transfers, not
// scheduler round trips, and the gates' atomics give the happens-before
// edges that make barrier-phase access to shard heaps and portal free
// lists safe.
func (s *Sharded) run(limit Time, bounded bool) {
	n := len(s.shards)
	if n == 1 && len(s.portals) == 0 {
		// Degenerate fast path: a plain single-threaded run. No windows,
		// no barriers — this is what keeps shards=1 within noise of the
		// pre-sharding simulator.
		if bounded {
			s.shards[0].RunUntil(limit)
		} else {
			s.shards[0].Run()
		}
		return
	}

	for i, sim := range s.shards {
		s.firedAt[i] = sim.fired // events fired outside run are not window work
	}

	// Spinning only pays when every shard can hold a core for the whole
	// window; oversubscribed, a spinner would burn the time slice the shard
	// it waits for needs, so waiters park at once.
	spin := spinBudget
	if n > runtime.GOMAXPROCS(0) {
		spin = 0
	}
	var (
		workers = make([]windowWorker, n-1)
		done    = &struct { // counts finished worker windows, all workers
			_ [cacheLine]byte
			gate
			_ [cacheLine]byte
		}{gate: newGate()}
		granted uint64 // windows handed to each worker so far
	)
	for i := range workers {
		w := &workers[i]
		w.sim, w.start, w.done = s.shards[i+1], newGate(), &done.gate
		go w.loop(spin)
	}
	// grant hands every worker one window (or, with stop set, its exit)
	// and returns once all of them have finished it.
	grant := func(end Time, stop bool) {
		granted++
		for i := range workers {
			workers[i].end, workers[i].stop = end, stop
			workers[i].start.advance()
		}
		if !stop {
			s.shards[0].runBefore(end)
		}
		s.stats.countWait(done.await(granted*uint64(len(workers)), spin))
	}
	defer func() {
		if len(workers) > 0 {
			grant(0, true)
			for i := range workers {
				s.stats.SpinWaits += workers[i].waits.SpinWaits
				s.stats.ParkWaits += workers[i].waits.ParkWaits
			}
		}
	}()

	for {
		// Drain first: messages queued at wiring time (or by the previous
		// window) become heap events before the global minimum is taken,
		// so they both count toward T and fire inside this run.
		s.drain()
		T, ok := s.nextEventAt()
		if !ok || (bounded && T > limit) {
			break
		}
		end := maxTime
		if len(s.portals) > 0 {
			end = T.Add(s.lookahead)
		}
		if bounded && end > limit+1 {
			end = limit + 1 // RunUntil is inclusive: fire events at == limit
		}
		if len(workers) > 0 {
			grant(end, false)
		} else {
			s.shards[0].runBefore(end)
		}
		s.countWindow()
	}
	if bounded {
		for _, sim := range s.shards {
			if sim.now < limit {
				sim.now = limit
			}
		}
	}
}

// windowWorker is one non-coordinator shard's side of the window loop.
type windowWorker struct {
	_ [cacheLine]byte

	// One line the coordinator writes and the worker reads, once per
	// window: end and stop are set before start is advanced and read after
	// start lets the worker through.
	start gate
	end   Time
	stop  bool
	sim   *Simulator
	done  *gate // shared: advanced by every worker once per window

	_ [cacheLine]byte

	// How the worker's waits on start resolved: its own line to write,
	// read by the coordinator once the worker has stopped.
	waits ShardedStats
}

func (w *windowWorker) loop(spin int) {
	for window := uint64(1); ; window++ {
		w.waits.countWait(w.start.await(window, spin))
		if w.stop {
			w.done.advance()
			return
		}
		w.sim.runBefore(w.end)
		w.done.advance() // the coordinator may rewrite end and stop from here on
	}
}

// spinBudget is how many times a waiter re-reads its gate, one cpuPause
// (≈25 ns) apart, before it parks: ≈50 µs. The windows this exists for are
// the overlay fabric's (500 ns lookahead, ≈12 events ≈ 3 µs of work per
// shard, up to all ≈24 on one of them), and parking across cores is the
// expensive outcome — on the 2-core reference host a budget of 256 made
// the overlay benchmark 2.3× slower than 1024–4096, which measured alike
// — so the budget sits a decade above the typical window. It still bounds
// a waiter's waste to tens of microseconds when the other side runs one
// long window (no-portal worlds) or has lost its core.
const spinBudget = 1 << 11

// cacheLine is the padding unit that keeps words written by different
// goroutines during a window on different cache lines.
const cacheLine = 64

// gate is a monotonic counter one goroutine waits on: await returns once
// the count has reached a target, advance adds one. A waiter re-reads the
// count up to a spin budget and then parks on a channel; advance pays for
// a wake-up only when the waiter has actually parked. Exactly one
// goroutine may await a gate; any number may advance it. A gate is one
// cache line's worth of hot state: whoever embeds it pads around it.
type gate struct {
	count  atomic.Uint64
	parked atomic.Bool
	wake   chan struct{} // one token per parked→awake transition won by advance
}

func newGate() gate { return gate{wake: make(chan struct{}, 1)} }

func (g *gate) advance() {
	g.count.Add(1)
	if g.parked.Load() && g.parked.CompareAndSwap(true, false) {
		g.wake <- struct{}{}
	}
}

// await returns once count ≥ target, reporting whether it had to park.
func (g *gate) await(target uint64, spin int) (parked bool) {
	for i := 0; ; i++ {
		if g.count.Load() >= target {
			return false
		}
		if i >= spin {
			break
		}
		cpuPause()
	}
	for g.count.Load() < target {
		// Announce the park, then look again: advance either sees parked
		// and sends a token, or its Add is visible to this re-check.
		g.parked.Store(true)
		if g.count.Load() >= target && g.parked.CompareAndSwap(true, false) {
			break
		}
		<-g.wake
	}
	return true
}

// ShardedStats are the window loop's own counters, for explaining what a
// sharded run cost the host: how many windows the lookahead cut the run
// into, how much work each carried and how evenly, and how the barrier
// waits resolved. They describe execution, not the model, so they differ
// by shard count and host and appear in no experiment output. The
// single-shard, no-portal fast path runs no windows and counts nothing.
type ShardedStats struct {
	Windows        uint64 // windows executed
	Events         uint64 // events fired inside windows, all shards
	EventsMaxShard uint64 // the busiest shard's events in each window, summed
	SpinWaits      uint64 // barrier waits that found their gate open while spinning
	ParkWaits      uint64 // barrier waits that gave up spinning and parked
	PortalMsgs     uint64 // messages that entered any portal
	PortalSpills   uint64 // of those, how many overflowed a ring into its spill slice
}

// Imbalance is Σ(max-shard events)/Σ(events) over all windows: the share
// of the event work that sits on the windows' critical path. 1/shards is
// perfect balance; 1 means one shard did everything.
func (st ShardedStats) Imbalance() float64 {
	if st.Events == 0 {
		return 0
	}
	return float64(st.EventsMaxShard) / float64(st.Events)
}

func (st ShardedStats) String() string {
	perWindow := 0.0
	if st.Windows > 0 {
		perWindow = float64(st.Events) / float64(st.Windows)
	}
	return fmt.Sprintf("windows=%d events/window=%.1f imbalance=%.2f waits spin=%d park=%d portal msgs=%d spills=%d",
		st.Windows, perWindow, st.Imbalance(), st.SpinWaits, st.ParkWaits, st.PortalMsgs, st.PortalSpills)
}

func (st *ShardedStats) countWait(parked bool) {
	if parked {
		st.ParkWaits++
	} else {
		st.SpinWaits++
	}
}

// Stats returns the window-loop counters accumulated over every Run
// variant so far. Call it between runs, not from inside an event.
func (s *Sharded) Stats() ShardedStats {
	st := s.stats
	for _, p := range s.portals {
		st.PortalMsgs += p.sent
		st.PortalSpills += p.spilled
	}
	return st
}

// countWindow folds the window that just ended into the counters.
func (s *Sharded) countWindow() {
	var sum, max uint64
	for i, sim := range s.shards {
		d := sim.fired - s.firedAt[i]
		s.firedAt[i] = sim.fired
		sum += d
		if d > max {
			max = d
		}
	}
	s.stats.Windows++
	s.stats.Events += sum
	s.stats.EventsMaxShard += max
}

// nextEventAt returns the earliest pending event time across all shards.
func (s *Sharded) nextEventAt() (Time, bool) {
	var (
		min Time
		ok  bool
	)
	for _, sim := range s.shards {
		if t, has := sim.nextAt(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// drain runs at each window barrier on the coordinator: it moves every
// queued cross-shard message into its destination heap, merging each
// shard's inbound portals in (arrival time, portal id) order so the
// sequence numbers arrivals receive — and therefore same-time ordering —
// are a deterministic function of the topology, not of shard placement.
func (s *Sharded) drain() {
	for d := range s.inbound {
		in := s.inbound[d]
		if len(in) == 0 {
			continue
		}
		for {
			var (
				best    *Portal
				bestMsg portalMsg
			)
			// Strict < keeps the lowest-id portal on arrival-time ties
			// (inbound is in ascending portal-id order).
			for _, p := range in {
				if msg, ok := p.peekMsg(); ok && (best == nil || msg.at < bestMsg.at) {
					best, bestMsg = p, msg
				}
			}
			if best == nil {
				break
			}
			best.popMsg()
			best.scheduleArrival(bestMsg)
		}
	}
}

// portalRingSize is the SPSC ring capacity (messages per window per
// portal) before the producer spills to its overflow slice. Must be a
// power of two.
const portalRingSize = 1024

// portalMsg is one queued cross-shard frame.
type portalMsg struct {
	at   Time
	data []byte
}

// Portal is a unidirectional cross-shard channel with fixed latency. The
// source shard produces into a lock-free SPSC ring during window
// execution; the coordinator consumes at the window barrier and schedules
// arrival events on the destination shard. Steady-state Send and delivery
// are allocation-free: ring slots are values and arrival records recycle
// through a per-portal free list, so the pooled fast paths inside each
// shard (link frames, engine completions) stay intact across the shard
// boundary.
type Portal struct {
	// Fixed at wiring time, read by everyone.
	id      int
	src     int
	dst     int
	latency Duration
	srcSim  *Simulator
	dstSim  *Simulator
	deliver func([]byte)
	ring    []portalMsg

	// The mutable fields are grouped by the goroutine that writes them
	// while a window runs, one cache line per group, so the two shards of
	// a cross-shard link and the coordinator never write the same line.
	_ [cacheLine]byte

	// Source worker, inside a window. tail publishes ring slots (SPSC:
	// head ≤ tail always, both only grow); spill absorbs windows that
	// queue more than the ring holds, appended only by the producer and
	// read only at the barrier.
	tail  atomic.Uint64
	spill []portalMsg
	sent  uint64

	_ [cacheLine]byte

	// Destination worker, inside a window: free recycles arrival records,
	// pushed by arrival.Complete and popped by scheduleArrival at the
	// barrier; the phases never overlap.
	free *arrival

	_ [cacheLine]byte

	// Coordinator, at the barrier.
	head     atomic.Uint64
	spillPos int
	spilled  uint64 // messages consumed from spill

	_ [cacheLine]byte
}

// Latency returns the portal's fixed crossing latency (its lookahead
// contribution).
func (p *Portal) Latency() Duration { return p.latency }

// Sent returns how many messages have entered the portal.
func (p *Portal) Sent() uint64 { return p.sent }

// Send queues data for delivery on the destination shard at the source
// shard's current time plus the portal latency. It must be called from
// the source shard (wiring-time or one of its event callbacks). The data
// slice is retained until the deliver callback runs.
func (p *Portal) Send(data []byte) {
	m := portalMsg{at: p.srcSim.now.Add(p.latency), data: data}
	t := p.tail.Load()
	if t-p.head.Load() < uint64(len(p.ring)) {
		p.ring[t&uint64(len(p.ring)-1)] = m
		p.tail.Store(t + 1)
	} else {
		p.spill = append(p.spill, m)
	}
	p.sent++
}

// peekMsg returns the oldest queued message without consuming it.
// Coordinator-only, at a barrier. Ring entries always precede spill
// entries: the producer only spills while the ring is full.
func (p *Portal) peekMsg() (portalMsg, bool) {
	if h := p.head.Load(); h != p.tail.Load() {
		return p.ring[h&uint64(len(p.ring)-1)], true
	}
	if p.spillPos < len(p.spill) {
		return p.spill[p.spillPos], true
	}
	return portalMsg{}, false
}

// popMsg consumes the message peekMsg returned. Coordinator-only.
func (p *Portal) popMsg() {
	if h := p.head.Load(); h != p.tail.Load() {
		p.ring[h&uint64(len(p.ring)-1)] = portalMsg{}
		p.head.Store(h + 1)
		return
	}
	p.spill[p.spillPos] = portalMsg{}
	p.spillPos++
	p.spilled++
	if p.spillPos == len(p.spill) {
		p.spill, p.spillPos = p.spill[:0], 0
	}
}

// scheduleArrival schedules the message's delivery on the destination
// shard through a pooled arrival record (no closure, no allocation in
// steady state).
func (p *Portal) scheduleArrival(m portalMsg) {
	a := p.free
	if a != nil {
		p.free = a.next
		a.next = nil
	} else {
		a = &arrival{p: p}
	}
	a.data = m.data
	p.dstSim.ScheduleCompletionAt(m.at, a)
}

// arrival is the pooled destination-side record of one queued message; it
// implements Completer so delivery rides the simulator's typed-event fast
// path.
type arrival struct {
	p    *Portal
	data []byte
	next *arrival
}

// Complete delivers the frame on the destination shard.
func (a *arrival) Complete() {
	p := a.p
	data := a.data
	// Recycle before delivering: the record's state is fully copied out,
	// so a delivery that triggers further sends may reuse it.
	a.data = nil
	a.next = p.free
	p.free = a
	p.deliver(data)
}
