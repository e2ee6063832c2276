// Package netsim provides a deterministic discrete-event simulation kernel
// used by every time-dependent component of the FlexSFP model: links,
// packet-processing engines, flash timing, traffic generators, and the
// reliability fleet simulator.
//
// Each Simulator is single-threaded by design. All state mutation happens
// inside event callbacks executed by Run/Step, which keeps the simulation
// reproducible for a given seed and makes component models trivially safe
// to compose. Parallelism comes from above: Sharded partitions a topology
// across many Simulators (one event heap, clock, and RNG stream per
// shard) and advances them together under conservative lookahead
// synchronization — see shard.go.
//
// Scheduling has one shape: ScheduleDetached (relative) and ScheduleAt
// (absolute) push an event that nothing outside the kernel can see, and a
// Queue holds one owner's pending entries whose times never decrease.
// There are no handles and no cancellation; every event returns to the
// simulator's free list once it has fired, so a steady-state schedule
// allocates nothing. A component that may no longer want a scheduled
// effect checks its own state when the callback runs.
//
// Per-frame event budget: a simulated frame costs one event per generator
// emit, one per link hop (Link's delivery, or its portal hand-off on a
// cross-shard link), one per engine verdict and one per portal arrival —
// nothing else. The last three are FIFO by construction, so each owner
// keeps them in a Queue: an entry takes its sequence number at Push, but
// only the queue's head sits in the event heap, and the next entry joins
// the heap with its reserved place when the head fires. The heap then
// holds one entry per busy owner, not one per frame in flight, while
// every event fires exactly where a plain event would have. An owner
// with a deferred effect that only it observes (an engine's queue slot
// freeing when a frame's input occupancy ends) takes a Mark instead of
// an event: MarkAt reserves the instant and the order an event would
// have had, and the owner asks Passed when it next looks, without a heap
// push or pop.
package netsim

import (
	"fmt"
	"math/rand"

	"flexsfp/internal/runner"
	"flexsfp/internal/telemetry"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Seconds returns the time as a floating-point number of seconds since
// simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string {
	return fmt.Sprintf("%.9fs", t.Seconds())
}

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// event is one heap entry. A scheduled callback's event is recycled onto
// the simulator's free list after it fires: no scheduling call returns
// it, so nothing outside the kernel can hold one. A Queue's event is its
// own, standing for the queue's head while the queue is non-empty.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
	q   *Queue // set on a Queue's own event; fn is nil then
}

// Simulator owns the simulated clock and the pending-event queue.
type Simulator struct {
	now    Time
	events eventHeap
	seq    uint64
	rng    *rand.Rand
	fired  uint64

	// behind counts the Queue entries waiting behind their queue's head:
	// pending events that are not in the heap.
	behind int

	// cur is the firing frontier at now, read by Passed: every event before
	// now has fired, and so has every event at now whose seq is below cur.
	// Step sets it to the seq of the event it fires; Run, RunUntil and
	// Sharded's run loop, once they have fired everything at or before
	// now, set it to seq, past every event and mark taken so far.
	cur uint64

	// free recycles fired events. No caller holds an event, so reusing
	// one cannot alias anything. The simulator is single-threaded, so a
	// plain slice beats sync.Pool (no per-P shards, no GC clearing).
	free []*event

	// gapHist, when attached (AttachTelemetry), observes the simulated-time
	// advance between consecutive fired events.
	gapHist  *telemetry.Histogram
	lastFire Time
}

// New returns a simulator whose clock starts at zero and whose random
// source is runner.NewRand(seed).
func New(seed int64) *Simulator {
	return &Simulator{rng: runner.NewRand(seed)}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source. All model
// randomness (measurement noise, traffic arrival jitter, failure sampling)
// must come from here so runs are reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Pending returns the number of events waiting to fire, counting every
// Queue entry, not only the queue heads in the heap.
func (s *Simulator) Pending() int { return len(s.events) + s.behind }

// Fired returns the total number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// ScheduleDetached runs fn after delay d of simulated time. A negative
// delay is treated as zero (fires "now", after already-queued same-time
// events). Nothing is returned and nothing can cancel the event; the
// kernel recycles it once it has fired, so scheduling allocates nothing in
// steady state. It is the kernel's one relative-time entry point.
func (s *Simulator) ScheduleDetached(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute simulated time t, recycling its event
// like ScheduleDetached. Times in the past are clamped to the current time.
func (s *Simulator) ScheduleAt(t Time, fn func()) {
	s.schedule(t, fn)
}

// Mark is a reserved place in the event order: the (time, sequence) an
// event scheduled at that moment would have had, with nothing scheduled.
type Mark struct {
	at  Time
	seq uint64
}

// MarkAt reserves the place an event scheduled now at absolute time t
// would take (t is clamped to now like ScheduleAt), without scheduling
// anything. It consumes that event's sequence number, so every real event
// keeps the relative order it would have had beside the event.
func (s *Simulator) MarkAt(t Time) Mark {
	if t < s.now {
		t = s.now
	}
	m := Mark{at: t, seq: s.seq}
	s.seq++
	return m
}

// Passed reports whether the event m stands for would already have fired:
// from inside a callback, whether it precedes the firing event; between
// run calls, whether the run has fired it. A mark does not hold a run
// open: Run stops at the last real event, and a mark beyond it stays
// unpassed until the clock reaches its instant.
func (s *Simulator) Passed(m Mark) bool {
	return m.at < s.now || (m.at == s.now && m.seq < s.cur)
}

// MarkFIFO holds an owner's marks whose places never decrease: one per
// deferred effect that only the owner observes, such as a queued frame's
// slot freeing (a link's transmit queue, an engine's input queue). The
// owner asks Pending when it next looks, which costs no event.
type MarkFIFO struct {
	marks []Mark // live marks are marks[head:]
	head  int
}

// Push appends m, which must not precede the last mark pushed. Once the
// slice has grown to twice the deepest backlog it has held, Push stops
// allocating: a full slice slides its live marks to the front when at
// least half of it has passed, and grows otherwise.
func (f *MarkFIFO) Push(m Mark) {
	if len(f.marks) == cap(f.marks) && f.head > 0 && f.head >= len(f.marks)/2 {
		n := copy(f.marks, f.marks[f.head:])
		f.marks, f.head = f.marks[:n], 0
	}
	f.marks = append(f.marks, m)
}

// Pending drops the marks sim has passed and returns how many remain.
func (f *MarkFIFO) Pending(sim *Simulator) int {
	if f.head == len(f.marks) {
		return 0
	}
	for f.head < len(f.marks) && sim.Passed(f.marks[f.head]) {
		f.head++
	}
	if f.head == len(f.marks) {
		f.marks, f.head = f.marks[:0], 0
	}
	return len(f.marks) - f.head
}

func (s *Simulator) schedule(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.at, e.fn = t, fn
	} else {
		e = &event{at: t, fn: fn}
	}
	e.seq = s.seq
	s.seq++
	s.events.push(e)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when no events remain.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.events[0]
	if s.gapHist != nil {
		s.gapHist.Observe(uint64(e.at - s.lastFire))
		s.lastFire = e.at
	}
	s.now, s.cur = e.at, e.seq
	s.fired++
	if q := e.q; q != nil {
		// The queue's next entry takes the head's heap entry before the
		// head's callback runs, which may push onto this queue.
		sl := q.head
		if next := sl.next; next != nil {
			q.head, sl.next = next, nil
			e.at, e.seq = next.at, next.seq
			s.behind--
		} else {
			q.head = nil
			s.events.dropTop()
		}
		s.events.fixTop()
		sl.c.Complete()
		return true
	}
	s.events.dropTop()
	s.events.fixTop()
	e.fn()
	// Recycle only after the callback returns: anything it scheduled has
	// already taken its own event, so no live reference remains.
	e.fn = nil
	s.free = append(s.free, e)
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
	s.cur = s.seq
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t. Events scheduled after t remain pending.
func (s *Simulator) RunUntil(t Time) {
	for {
		e := s.peek()
		if e == nil || e.at > t {
			break
		}
		s.Step()
	}
	if s.now <= t {
		s.now, s.cur = t, s.seq
	}
}

// RunFor executes events for a span d of simulated time starting now.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// runBefore executes every event strictly before limit, leaving the clock
// at the last fired event. It is the conservative-window execution
// primitive of the sharded simulator: a shard granted the window [now,
// limit) may fire exactly these events without seeing a cross-shard
// message, because any such message arrives at or after limit.
func (s *Simulator) runBefore(limit Time) {
	for {
		e := s.peek()
		if e == nil || e.at >= limit {
			return
		}
		s.Step()
	}
}

func (s *Simulator) peek() *event {
	if len(s.events) > 0 {
		return s.events[0]
	}
	return nil
}
