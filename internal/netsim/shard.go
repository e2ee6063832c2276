package netsim

import (
	"fmt"
	"math"
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
// the window cannot arrive before T+L. The barrier is symmetric: each
// shard publishes one line (its earliest pending time and the events it
// fired), reads everyone else's, computes the same T, and merges its own
// inbound cross-shard messages into its own heap before it runs the next
// window. No shard coordinates the others. A topology with no
// cross-shard channels (disconnected partitions) has infinite lookahead:
// one window runs everything.
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
// and TestShardedVsRef (random worlds against a serial reference) pin.
type Sharded struct {
	seed      int64
	shards    []*Simulator
	portals   []*Portal
	inbound   [][]*Portal // per destination shard, in portal-id order
	outbound  [][]*Portal // per source shard
	lookahead Duration    // min portal latency; 0 until a portal exists

	// The barrier, built once so that a Run allocates nothing but its
	// worker goroutines: one published line per shard, and the count of
	// workers that have finished the current Run.
	lines  []shardLine
	exited struct {
		_ [cacheLine]byte
		n atomic.Uint64
		_ [cacheLine]byte
	}

	// batch counts the barriers of every Run so far: each closes one batch
	// of every portal, and its parity selects the published values and the
	// spill slice that batch uses. It persists across Runs because messages
	// sent between Runs belong to the next Run's first batch.
	batch uint64
}

// maxTime is the effectively-unbounded window limit used when no portal
// constrains progress.
const maxTime = Time(1) << 62

// streamSalt separates partition-stream seed derivation (Stream) from
// per-shard seed derivation (NewSharded), so a partition's stream never
// collides with a shard's ambient RNG.
const streamSalt = 0x73747265616d73 // "streams"

// NewSharded creates a parallel simulation world of n shards (clamped to
// at least one). Shard i starts at time zero with the RNG
// runner.TrialRand(seed, i).
func NewSharded(seed int64, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{
		seed:     seed,
		shards:   make([]*Simulator, n),
		inbound:  make([][]*Portal, n),
		outbound: make([][]*Portal, n),
		lines:    make([]shardLine, n),
	}
	for i := range s.lines {
		s.lines[i].wake = make(chan struct{}, 1)
	}
	// Shards are written on every event by different cores; allocated one
	// by one they would sit back to back and share cache lines.
	sims := make([]struct {
		_   [cacheLine]byte
		sim Simulator
	}, n)
	for i := range s.shards {
		s.shards[i] = &sims[i].sim
		s.shards[i].rng = runner.TrialRand(seed, i)
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
		id:       len(s.portals),
		src:      src,
		dst:      dst,
		latency:  latency,
		srcSim:   s.shards[src],
		dstSim:   s.shards[dst],
		deliver:  deliver,
		ring:     make([]portalMsg, portalRingSize),
		arrivals: NewQueue(s.shards[dst]),
	}
	s.portals = append(s.portals, p)
	s.inbound[dst] = append(s.inbound[dst], p)
	s.outbound[src] = append(s.outbound[src], p)
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

// run is the conservative window loop, run symmetrically by every shard:
// shard 0 on the caller's goroutine, shards 1..n-1 on worker goroutines
// that live for this call. Each round is one barrier and one window. At
// the barrier a shard closes the batch every outbound portal has queued
// since the last one, publishes its line — the earliest of its heap top
// and those batches' first messages, and the events it fired — and waits
// until every shard has published. Every shard then reads the same lines,
// so all compute the same T and end = T + lookahead (unbounded when no
// portals exist, clamped by RunUntil); each merges the batches its inbound
// portals closed into its own heap and runs its window. Progress is
// guaranteed because the event at T always fires. The barrier that ends
// the run merges too, so heaps between runs hold every message sent.
//
// A barrier costs each shard one line write and one read of every other
// line, not scheduler round trips; the lines' atomics give the
// happens-before edges that make a consumer's read of a closed batch and
// its writes to its own heap and arrival free lists safe.
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

	// Spinning only pays when every shard can hold a core for the whole
	// window; oversubscribed, a spinner would burn the time slice the shard
	// it waits for needs, so waiters go straight to yielding.
	spin := spinBudget
	if n > runtime.GOMAXPROCS(0) {
		spin = 0
	}
	s.exited.n.Store(0)
	for i := 1; i < n; i++ {
		go s.shardLoop(i, limit, bounded, spin)
	}
	batch := s.shardLoop(0, limit, bounded, spin)
	if n > 1 {
		want := uint64(n - 1)
		s.lines[0].await(spin, func() bool { return s.exited.n.Load() == want })
	}
	s.batch = batch
}

// shardLoop is shard i's side of run. It returns the batch count at its
// exit, the same on every shard.
func (s *Sharded) shardLoop(i int, limit Time, bounded bool, spin int) uint64 {
	var (
		sim   = s.shards[i]
		me    = &s.lines[i]
		out   = s.outbound[i]
		b     = s.batch
		first = true
	)
	me.mark = sim.fired // events fired outside run are not window work
	for {
		par := b & 1
		next := never
		if e := sim.peek(); e != nil {
			next = e.at
		}
		for _, p := range out {
			if at, ok := p.close(par); ok && at < next {
				next = at
			}
		}
		pub := &me.pub
		pub.next[par], pub.fired[par], me.mark = next, sim.fired-me.mark, sim.fired
		pub.seq.Store(b + 1)
		if len(s.lines) > 1 {
			s.wakeOthers(i)
			me.stats.count(me.await(spin, func() bool { return s.published(b + 1) }))
		}

		T := never
		for j := range s.lines {
			T = min(T, s.lines[j].pub.next[par])
		}
		if i == 0 && !first {
			s.countWindow(par)
		}
		first = false
		s.drainInbound(i, par)
		b++
		if T == never || (bounded && T > limit) {
			break
		}
		end := maxTime
		if s.lookahead > 0 {
			end = T.Add(s.lookahead)
		}
		if bounded && end > limit+1 {
			end = limit + 1 // RunUntil is inclusive: fire events at == limit
		}
		sim.runBefore(end)
	}
	if !bounded || sim.now <= limit { // a shard already past limit keeps its own frontier
		if bounded {
			sim.now = limit
		}
		sim.cur = sim.seq // every event at or before now has fired
	}
	if i > 0 {
		s.exited.n.Add(1)
		s.lines[0].wakeIfParked()
	}
	return b
}

// never is the published next-event time of a shard with nothing pending.
const never = Time(math.MaxInt64)

// shardLine is one shard's slot in the barrier, three cache lines:
//
//   - pub, what the shard publishes at each barrier and every other shard
//     reads. The values are double-buffered by barrier parity, because a
//     shard may already be publishing the next barrier's values while a
//     slower reader is still reading this one's (it cannot get two
//     barriers ahead: the next barrier waits for that reader);
//   - parked and wake, read by every shard that publishes but written
//     only when the owner parks, so that read stays in the reader's cache;
//   - the owner's own counters.
type shardLine struct {
	_ [cacheLine]byte

	pub struct {
		seq   atomic.Uint64 // barriers published, all Runs
		next  [2]Time       // by parity: earliest pending time, or never
		fired [2]uint64     // by parity: events fired in the window just ended
	}

	_ [cacheLine]byte

	// parked is set by the owner before it blocks on wake; a publisher
	// that wins the CompareAndSwap back sends the one token.
	parked atomic.Bool
	wake   chan struct{}

	_ [cacheLine]byte

	mark  uint64       // Simulator.fired at the last barrier
	stats ShardedStats // this shard's waits; on shard 0, the window counters too

	_ [cacheLine]byte
}

// published reports whether every shard has published at least target
// barriers.
func (s *Sharded) published(target uint64) bool {
	for j := range s.lines {
		if s.lines[j].pub.seq.Load() < target {
			return false
		}
	}
	return true
}

// wakeOthers releases every other shard that parked waiting for a line.
func (s *Sharded) wakeOthers(i int) {
	for j := range s.lines {
		if j != i {
			s.lines[j].wakeIfParked()
		}
	}
}

func (l *shardLine) wakeIfParked() {
	if l.parked.Load() && l.parked.CompareAndSwap(true, false) {
		l.wake <- struct{}{}
	}
}

// spinBudget is how many times a waiter re-reads the lines, one cpuPause
// (≈25 ns) apart, before it starts yielding: ≈50 µs. The windows this
// exists for are the overlay fabric's (500 ns lookahead, ≈15 events of
// work per barrier), where the other shard publishes within a few
// microseconds and a cross-core park is the expensive outcome; on the
// 2-core reference host a budget of 256 made the overlay benchmark 2.3×
// slower. A larger budget is not better either: with two sharded worlds
// sharing two cores (flexsfp-bench -shards 2 runs its experiments
// concurrently), a spinner holds a P the shard it waits for needs, and
// 1<<15 took overlay_linerate from 113–133 to 325–847 ms of wall.
const spinBudget = 1 << 11

// yieldBudget is how many times a waiter that has spent its spin budget
// hands its P to another goroutine (runtime.Gosched) before it parks. A
// yield costs a fraction of a microsecond when nothing else is runnable,
// far less than a park and wake-up, and when something is — the shard it
// waits for, or another world's — it is the one that runs.
const yieldBudget = 1 << 6

// cacheLine is the padding unit that keeps words written by different
// goroutines during a window on different cache lines.
const cacheLine = 64

// Ways a barrier wait resolved, in the order a waiter tries them.
const (
	waitSpin = iota
	waitYield
	waitPark
)

// await returns once ready holds: it re-reads ready up to spin times,
// then yields up to yieldBudget times, then parks on the line's wake
// channel until a publisher finds it parked. It reports which phase the
// wait resolved in. Only the line's owner awaits on it.
func (l *shardLine) await(spin int, ready func() bool) int {
	for i := 0; ; i++ {
		if ready() {
			return waitSpin
		}
		if i >= spin {
			break
		}
		cpuPause()
	}
	for i := 0; i < yieldBudget; i++ {
		runtime.Gosched()
		if ready() {
			return waitYield
		}
	}
	for !ready() {
		// Announce the park, then look again: a publisher either sees
		// parked and sends a token, or its store is visible to this
		// re-check.
		l.parked.Store(true)
		if ready() && l.parked.CompareAndSwap(true, false) {
			break
		}
		<-l.wake
	}
	return waitPark
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
	SpinWaits      uint64 // barrier waits that ended while spinning
	YieldWaits     uint64 // barrier waits that ended while yielding the P
	ParkWaits      uint64 // barrier waits that parked
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
	return fmt.Sprintf("windows=%d events/window=%.1f imbalance=%.2f waits spin=%d yield=%d park=%d portal msgs=%d spills=%d",
		st.Windows, perWindow, st.Imbalance(), st.SpinWaits, st.YieldWaits, st.ParkWaits, st.PortalMsgs, st.PortalSpills)
}

func (st *ShardedStats) count(wait int) {
	switch wait {
	case waitSpin:
		st.SpinWaits++
	case waitYield:
		st.YieldWaits++
	default:
		st.ParkWaits++
	}
}

// Stats returns the window-loop counters accumulated over every Run
// variant so far. Call it between runs, not from inside an event.
func (s *Sharded) Stats() ShardedStats {
	var st ShardedStats
	for i := range s.lines {
		l := &s.lines[i].stats
		st.Windows += l.Windows
		st.Events += l.Events
		st.EventsMaxShard += l.EventsMaxShard
		st.SpinWaits += l.SpinWaits
		st.YieldWaits += l.YieldWaits
		st.ParkWaits += l.ParkWaits
	}
	for _, p := range s.portals {
		st.PortalMsgs += p.sent
		st.PortalSpills += p.spilled
	}
	return st
}

// countWindow folds the window that ended at the barrier of parity par
// into shard 0's counters, from the fired counts every shard published
// there. Shard 0 only.
func (s *Sharded) countWindow(par uint64) {
	var sum, max uint64
	for j := range s.lines {
		d := s.lines[j].pub.fired[par]
		sum += d
		if d > max {
			max = d
		}
	}
	st := &s.lines[0].stats
	st.Windows++
	st.Events += sum
	st.EventsMaxShard += max
}

// drainInbound runs on shard d at each barrier: it moves the batch of
// parity par that each of d's inbound portals closed there into d's heap,
// merged in (arrival time, portal id) order, so the sequence numbers
// arrivals receive — and therefore same-time ordering — are a
// deterministic function of the topology, not of shard placement.
func (s *Sharded) drainInbound(d int, par uint64) {
	in := s.inbound[d]
	for {
		var (
			best    *Portal
			bestMsg portalMsg
		)
		// Strict < keeps the lowest-id portal on arrival-time ties
		// (inbound is in ascending portal-id order).
		for _, p := range in {
			if msg, ok := p.peek(par); ok && (best == nil || msg.at < bestMsg.at) {
				best, bestMsg = p, msg
			}
		}
		if best == nil {
			return
		}
		best.pop(par)
		best.scheduleArrival(bestMsg)
	}
}

// portalRingSize is the SPSC ring capacity before the producer spills to
// its overflow slice. The ring holds at most two batches, the one its
// consumer is draining and the one its producer is filling. Must be a
// power of two.
const portalRingSize = 1024

// portalMsg is one queued cross-shard frame.
type portalMsg struct {
	at   Time
	data []byte
}

// Portal is a unidirectional cross-shard channel with fixed latency. The
// source shard produces into a lock-free SPSC ring during its window; at
// each barrier it closes the batch it has queued, and the destination
// shard drains exactly that batch into the portal's arrival queue before
// its next window, while the source may already be filling the
// next batch. A batch that overflows the ring goes on into a spill slice,
// double-buffered by batch parity so that the batch being drained and the
// one being filled never share one. Steady-state Send and delivery are
// allocation-free: ring slots are values and arrival records recycle
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

	// The mutable fields are grouped by who writes them and when, one
	// cache line per group, so the two shards of a cross-shard link never
	// write the same line and an idle portal costs its consumer no miss.
	_ [cacheLine]byte

	// Source shard only. tail is the next ring slot to fill (SPSC: head ≤
	// tail always, both only grow); headSeen is the last head read, so a
	// Send reads the consumer's line only when the ring looks full; fill
	// is the open batch's parity, and spilling says it has overflowed.
	tail     uint64
	headSeen uint64
	fill     uint64
	spilling bool
	sent     uint64

	_ [cacheLine]byte

	// Written by the source shard when a batch closes (and when it
	// spills), read by the destination shard at the next barrier: by batch
	// parity, tail at the close, and the spill slice that absorbed the
	// batch's overflow — and, once it overflowed, the rest of the batch,
	// so the batch stays FIFO.
	closed [2]uint64
	spill  [2][]portalMsg

	_ [cacheLine]byte

	// Destination shard, at the barrier: head consumes ring slots,
	// spillPos the closed batch's spill slice; arrivals holds the drained
	// messages until they fire, and free recycles their records, pushed
	// by arrival.Complete and popped by scheduleArrival.
	head     atomic.Uint64
	spillPos int
	spilled  uint64 // messages consumed from spill
	arrivals *Queue
	free     *arrival

	_ [cacheLine]byte
}

// Send queues data for delivery on the destination shard at the source
// shard's current time plus the portal latency. It must be called from
// the source shard (wiring-time or one of its event callbacks). The data
// slice is retained until the deliver callback runs.
func (p *Portal) Send(data []byte) {
	m := portalMsg{at: p.srcSim.now.Add(p.latency), data: data}
	p.sent++
	if !p.spilling {
		size := uint64(len(p.ring))
		if p.tail-p.headSeen >= size {
			p.headSeen = p.head.Load()
		}
		if p.tail-p.headSeen < size {
			p.ring[p.tail&(size-1)] = m
			p.tail++
			return
		}
		p.spilling = true
	}
	p.spill[p.fill] = append(p.spill[p.fill], m)
}

// close ends the open batch, whose parity is par, at a barrier and
// reports the arrival time of its first message — its earliest, since one
// portal's arrivals never decrease. Source-shard only.
func (p *Portal) close(par uint64) (Time, bool) {
	from, to := p.closed[par^1], p.tail
	if p.closed[par] != to { // an idle portal leaves the consumer's copy valid
		p.closed[par] = to
	}
	p.fill, p.spilling = par^1, false
	if from != to {
		return p.ring[from&uint64(len(p.ring)-1)].at, true
	}
	if spill := p.spill[par]; len(spill) > 0 {
		return spill[0].at, true
	}
	return 0, false
}

// peek returns the closed batch's oldest unconsumed message.
// Destination-shard only, at a barrier. The batch's ring entries precede
// its spill entries.
func (p *Portal) peek(par uint64) (portalMsg, bool) {
	if h := p.head.Load(); h != p.closed[par] {
		return p.ring[h&uint64(len(p.ring)-1)], true
	}
	if spill := p.spill[par]; p.spillPos < len(spill) {
		return spill[p.spillPos], true
	}
	return portalMsg{}, false
}

// pop consumes the message peek returned. Destination-shard only.
func (p *Portal) pop(par uint64) {
	if h := p.head.Load(); h != p.closed[par] {
		p.ring[h&uint64(len(p.ring)-1)] = portalMsg{}
		p.head.Store(h + 1)
		return
	}
	spill := p.spill[par]
	spill[p.spillPos] = portalMsg{}
	p.spillPos++
	p.spilled++
	if p.spillPos == len(spill) {
		p.spill[par], p.spillPos = spill[:0], 0
	}
}

// scheduleArrival queues the message's delivery on the destination shard
// through a pooled arrival record (no closure, no allocation in steady
// state). One portal's arrivals never decrease, so they wait in the
// portal's own queue: a drained batch holds one heap entry.
func (p *Portal) scheduleArrival(m portalMsg) {
	a := p.free
	if a != nil {
		p.free = a.next
		a.next = nil
	} else {
		a = &arrival{p: p}
	}
	a.data = m.data
	p.arrivals.Push(m.at, &a.slot, a)
}

// arrival is the pooled destination-side record of one queued message,
// the entry of its delivery in the portal's arrival queue.
type arrival struct {
	slot Slot
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
