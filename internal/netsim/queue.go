package netsim

import "fmt"

// Queue holds one owner's pending entries, whose times never decrease: a
// link's deliveries, an engine's verdicts, a portal's arrivals. Each entry
// takes its sequence number at Push, as MarkAt does, so it keeps the place
// a plain event scheduled then would have had; but only the queue's head
// sits in the event heap. When the head fires, the next entry joins the
// heap with its reserved (time, sequence) before the head's callback runs,
// so a callback may push onto the queue it fired from. The heap holds one
// entry per busy owner instead of one per frame in flight, and every entry
// fires exactly where a plain event would.
//
// Entries are intrusive: the owner embeds a Slot in its pooled record and
// recycles the record once its Complete has run, so Push allocates nothing.
// A Queue is single-threaded like its simulator.
type Queue struct {
	sim        *Simulator
	head, tail *Slot // tail is meaningful only while head != nil
	ev         event // the head's heap entry, in the heap while head != nil
}

// Slot is a Queue entry's link, embedded in the owner's pooled record. It
// belongs to the queue from Push until its Complete is called, and keeps
// pointing at its owner after.
type Slot struct {
	at   Time
	seq  uint64
	c    Completer
	next *Slot
}

// Completer is the callback of a Queue entry: the owner's pooled record
// (an engine's frame context, a link's in-flight frame, a portal's
// arrival) implements it, so a per-frame entry needs no closure.
type Completer interface {
	Complete()
}

// NewQueue returns an empty queue on sim.
func NewQueue(sim *Simulator) *Queue {
	q := &Queue{sim: sim}
	q.ev.q = q
	return q
}

// Push schedules c.Complete() at absolute time t through s, which must be
// c's own slot and not already queued. t is clamped to now like
// ScheduleAt. A time below the queue's last pending entry panics: the
// queue never reorders.
func (q *Queue) Push(t Time, s *Slot, c Completer) {
	sim := q.sim
	if t < sim.now {
		t = sim.now
	}
	s.at, s.c = t, c
	if q.head == nil {
		s.seq = sim.seq
		sim.seq++
		q.head, q.tail = s, s
		q.ev.at, q.ev.seq = t, s.seq
		sim.events.push(&q.ev)
		return
	}
	if t < q.tail.at {
		q.behindTail(t)
	}
	s.seq = sim.seq
	sim.seq++
	q.tail.next = s
	q.tail = s
	sim.behind++
}

// behindTail panics for a push at t behind the queue's last entry. It is
// out of line so that Push stays small.
//
//go:noinline
func (q *Queue) behindTail(t Time) {
	panic(fmt.Sprintf("netsim: Queue.Push at %d behind the queue's last entry at %d", t, q.tail.at))
}
