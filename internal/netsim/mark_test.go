package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flexsfp/internal/runner"
)

// markProbe is one reservation of TestMarkMatchesEvent: a mark, and
// whether the real event scheduled right behind it has fired. A bare
// probe has no event behind it, like an engine's slot-release mark; its
// answer is known only where time alone decides it.
type markProbe struct {
	m     Mark
	at    Time // the mark's instant, after clamping
	bare  bool
	fired bool
}

// markEntry carries a probe's event as a Queue entry: q is the index of
// its queue. Entries are pooled like a link's frames: Complete recycles
// the entry before it runs the probe's callback, so a push from the
// callback may reuse the very slot that is firing.
type markEntry struct {
	slot Slot
	w    *markWorld
	p    *markProbe
	q    int
}

func (e *markEntry) Complete() {
	w, p, q := e.w, e.p, e.q
	e.p = nil
	w.free = append(w.free, e)
	w.fire(p, q)
}

// markWorld runs a random event program on one simulator and checks
// every probe's Passed against its event. Some probes' events are
// entries of the world's queues, pushed at non-decreasing times per
// queue, often tied to the nanosecond with plain events and marks, and
// from inside callbacks, the firing queue's own included. With ref set,
// the same entries are plain ScheduleAt events instead: the reference a
// queued world must match in firing order, Passed answers and Pending,
// which log records. Failures are recorded, not raised, because sharded
// callbacks run on worker goroutines.
type markWorld struct {
	sim    *Simulator
	rng    *rand.Rand
	probes []*markProbe
	budget int
	send   func() // optional: a portal message out of this shard
	bad    string

	queues []*Queue
	last   []Time // per queue, the time of its latest entry
	free   []*markEntry
	ref    bool
	log    []string
}

// newMarkWorld returns a world on sim with nq queues.
func newMarkWorld(sim *Simulator, rng *rand.Rand, budget, nq int, ref bool) *markWorld {
	w := &markWorld{sim: sim, rng: rng, budget: budget, ref: ref, last: make([]Time, nq)}
	for range nq {
		w.queues = append(w.queues, NewQueue(sim))
	}
	return w
}

// check compares every probe with its event. drained says a run variant
// has just fired everything at or before now, which decides bare probes
// at now as well. The answers and Pending go to the log.
func (w *markWorld) check(where string, drained bool) {
	if w.bad != "" {
		return
	}
	now := w.sim.Now()
	var answers strings.Builder
	for i, p := range w.probes {
		got := w.sim.Passed(p.m)
		if got {
			answers.WriteByte('1')
		} else {
			answers.WriteByte('0')
		}
		want := p.fired
		if p.bare {
			if p.at == now && !drained {
				continue
			}
			want = p.at <= now
		}
		if got != want {
			w.bad = fmt.Sprintf("%s at %d: probe %d %+v: Passed = %v, its event fired = %v",
				where, now, i, p, got, want)
			return
		}
	}
	w.log = append(w.log, fmt.Sprintf("%s at %d: pending %d passed %s", where, now, w.sim.Pending(), answers.String()))
}

// fire is a probe's callback, whichever way its event was scheduled: q is
// the probe's queue, or -1.
func (w *markWorld) fire(p *markProbe, q int) {
	p.fired = true
	w.check(fmt.Sprintf("callback q%d", q), false)
	if q >= 0 && w.rng.Intn(3) == 0 {
		w.reserveOn(q)
	}
	w.reserve(w.rng.Intn(3))
	if w.send != nil && w.rng.Intn(3) == 0 {
		w.send()
	}
}

// reserve takes up to n probes: each a MarkAt and, at once, an event at
// the same instant, which takes the adjacent sequence number (or, for a
// bare probe, nothing). The event is a plain one or an entry of a random
// queue. Instants are now half the time (same-time order then rests on
// sequence numbers alone), sometimes in the past (both clamp to now).
func (w *markWorld) reserve(n int) {
	for k := 0; k < n && w.budget > 0; k++ {
		if len(w.queues) > 0 && w.rng.Intn(2) == 0 {
			w.reserveOn(w.rng.Intn(len(w.queues)))
			continue
		}
		w.budget--
		at := w.sim.Now()
		switch w.rng.Intn(8) {
		case 0:
			at -= 3
		case 1, 2, 3:
			at += Time(w.rng.Intn(25))
		}
		if at < w.sim.Now() {
			at = w.sim.Now()
		}
		p := &markProbe{m: w.sim.MarkAt(at), at: at, bare: w.rng.Intn(3) == 0}
		w.probes = append(w.probes, p)
		if p.bare {
			continue
		}
		w.sim.ScheduleAt(at, func() { w.fire(p, -1) })
	}
}

// reserveOn takes one probe whose event is an entry of queue q, at or
// after the queue's latest entry: tied to it or to now half the time. In
// a queued world it first checks that a push behind the latest entry
// panics and changes nothing.
func (w *markWorld) reserveOn(q int) {
	if w.budget <= 0 {
		return
	}
	w.budget--
	now := w.sim.Now()
	at := max(now, w.last[q])
	if w.rng.Intn(2) == 0 {
		at += Time(w.rng.Intn(10))
	}
	if w.last[q] > now && w.rng.Intn(4) == 0 && !w.ref {
		w.pushBehind(q)
	}
	w.last[q] = at
	p := &markProbe{m: w.sim.MarkAt(at), at: at}
	w.probes = append(w.probes, p)
	if w.ref {
		w.sim.ScheduleAt(at, func() { w.fire(p, q) })
		return
	}
	e := w.entry(p, q)
	w.queues[q].Push(at, &e.slot, e)
}

// entry takes a recycled entry, or a new one, for probe p on queue q.
func (w *markWorld) entry(p *markProbe, q int) *markEntry {
	if n := len(w.free); n > 0 {
		e := w.free[n-1]
		w.free = w.free[:n-1]
		e.p, e.q = p, q
		return e
	}
	return &markEntry{w: w, p: p, q: q}
}

// pushBehind pushes onto queue q one nanosecond before its latest entry
// and records a failure unless the push panics.
func (w *markWorld) pushBehind(q int) {
	defer func() {
		if recover() == nil && w.bad == "" {
			w.bad = fmt.Sprintf("queue %d accepted a push at %d behind its entry at %d", q, w.last[q]-1, w.last[q])
		}
	}()
	e := &markEntry{w: w, p: &markProbe{}, q: q}
	w.queues[q].Push(w.last[q]-1, &e.slot, e)
}

// runMarkWorld drives one seeded world on a plain simulator through
// random Step, RunUntil, RunFor and Run calls, reserving probes after
// each.
func runMarkWorld(seed int64, nq int, ref bool) *markWorld {
	w := newMarkWorld(New(seed), runner.NewRand(seed), 150, nq, ref)
	w.check("start", false)
	w.reserve(4)
	for op := 0; op < 40 && w.bad == ""; op++ {
		where, drained := "", true
		switch w.rng.Intn(4) {
		case 0:
			where, drained = "Step", false
			w.sim.Step()
		case 1:
			where = "RunUntil"
			w.sim.RunUntil(w.sim.Now().Add(Duration(w.rng.Intn(30))))
		case 2:
			where = "RunFor"
			w.sim.RunFor(Duration(w.rng.Intn(30)))
		case 3:
			where = "Run"
			w.sim.Run()
		}
		w.check("after "+where, drained)
		w.reserve(1 + w.rng.Intn(2))
		w.check("reserved after "+where, false)
	}
	w.sim.Run()
	w.check("final Run", true)
	return w
}

// checkQueueVsEvents runs one seeded world with nq queues and again with
// every queue entry a plain event: both must pass their probes and log
// the same firings, Passed answers and Pending counts.
func checkQueueVsEvents(t *testing.T, seed int64, nq int) {
	t.Helper()
	got, want := runMarkWorld(seed, nq, false), runMarkWorld(seed, nq, true)
	if got.bad != "" {
		t.Fatalf("seed %d, %d queues: %s", seed, nq, got.bad)
	}
	if want.bad != "" {
		t.Fatalf("seed %d, %d queues, reference: %s", seed, nq, want.bad)
	}
	if i := slices.Compare(got.log, want.log); i != 0 {
		n := 0
		for n < len(got.log) && n < len(want.log) && got.log[n] == want.log[n] {
			n++
		}
		line := func(log []string) string {
			if n < len(log) {
				return log[n]
			}
			return "(end)"
		}
		t.Fatalf("seed %d, %d queues: line %d of the log:\nqueued:    %s\nreference: %s", seed, nq, n, line(got.log), line(want.log))
	}
}

// TestMarkMatchesEvent is the kernel property behind marks and queues:
// Passed(m) answers exactly "has the event that would have taken m's
// place fired", read inside every callback and after Step, RunUntil,
// RunFor and Run, on a plain simulator and inside Sharded windows; and a
// Queue entry fires exactly where a plain event scheduled at its Push
// would have, with Pending counting it all along. Probes reserved right
// after a run variant returns, at the current instant, catch a Passed
// that admits the frontier's own sequence number; a probe's own callback
// catches a MarkAt that does not consume its sequence number. Against
// the reference, a queue entry that takes a fresh sequence number when it
// reaches the heap, a next head that joins the heap only after the
// fired entry's callback, and a push behind the queue's tail that does
// not panic all fail.
func TestMarkMatchesEvent(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		checkQueueVsEvents(t, seed, int(seed%4))
	}

	for _, shards := range []int{1, 2} {
		for seed := int64(0); seed < 40; seed++ {
			sh := NewSharded(seed, shards)
			worlds := make([]*markWorld, shards)
			for i := range worlds {
				worlds[i] = newMarkWorld(sh.Shard(i), sh.Stream(i), 120, int(seed%3), false)
			}
			for i := range worlds {
				dst := worlds[(i+1)%shards]
				p := sh.Connect(i, (i+1)%shards, 7, func([]byte) {
					dst.check("portal arrival", false)
					dst.reserve(1)
				})
				worlds[i].send = func() { p.Send(nil) }
			}
			for _, w := range worlds {
				w.reserve(4)
			}
			for step := 0; step < 12; step++ {
				sh.RunFor(Duration(1 + worlds[0].rng.Intn(40)))
				for _, w := range worlds {
					w.check("after Sharded.RunFor", true)
					w.reserve(1)
					w.check("reserved after Sharded.RunFor", false)
				}
			}
			sh.Run()
			for i, w := range worlds {
				w.check("after Sharded.Run", true)
				if w.bad != "" {
					t.Fatalf("shards=%d seed %d shard %d: %s", shards, seed, i, w.bad)
				}
			}
		}
	}
}

// FuzzQueueVsEvents is TestMarkMatchesEvent's queue-against-reference
// half under the fuzzer's mutator.
func FuzzQueueVsEvents(f *testing.F) {
	for _, seed := range []int64{1, 5, 9, 23} {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, nq uint8) {
		checkQueueVsEvents(t, seed, 1+int(nq%3))
	})
}
