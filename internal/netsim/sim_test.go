package netsim

import (
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.ScheduleDetached(30, func() { got = append(got, 3) })
	s.ScheduleDetached(10, func() { got = append(got, 1) })
	s.ScheduleDetached(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleDetached(100, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	fired := false
	s.ScheduleDetached(-5, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Errorf("Now() = %v, want 0", s.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	s := New(1)
	s.ScheduleDetached(50, func() {
		s.ScheduleAt(10, func() {}) // in the past: clamp to now=50
	})
	s.Run()
	if s.Now() != 50 {
		t.Errorf("Now() = %v, want 50", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, d := range []Duration{5, 10, 15, 20} {
		d := d
		s.ScheduleDetached(d, func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (at 5 and 10)", len(fired))
	}
	if s.Now() != 12 {
		t.Errorf("Now() = %v, want clock advanced to 12", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 4 {
		t.Errorf("after Run, fired %d events, want 4", len(fired))
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	fired := false
	s.ScheduleDetached(10, func() { fired = true })
	s.RunUntil(10)
	if !fired {
		t.Fatal("event exactly at boundary did not fire")
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	s.ScheduleDetached(100, func() {})
	s.RunFor(40)
	if s.Now() != 40 {
		t.Errorf("Now() = %v, want 40", s.Now())
	}
	s.RunFor(70)
	if s.Now() != 110 {
		t.Errorf("Now() = %v, want 110", s.Now())
	}
	if s.Fired() != 1 {
		t.Errorf("Fired() = %d, want 1", s.Fired())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.ScheduleDetached(1, recurse)
		}
	}
	s.ScheduleDetached(0, recurse)
	s.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if s.Now() != 99 {
		t.Errorf("Now() = %v, want 99", s.Now())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestDurationMath(t *testing.T) {
	if Second != 1e9 {
		t.Errorf("Second = %d ns, want 1e9", Second)
	}
	if got := (2 * Millisecond).Seconds(); got != 0.002 {
		t.Errorf("2ms = %v s, want 0.002", got)
	}
	tm := Time(0).Add(3 * Microsecond)
	if tm != 3000 {
		t.Errorf("Add = %v, want 3000", tm)
	}
	if d := Time(5000).Sub(Time(2000)); d != 3000 {
		t.Errorf("Sub = %v, want 3000", d)
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := New(7)
		var fired []Time
		var max Duration
		for _, d := range delays {
			dd := Duration(d)
			if dd > max {
				max = dd
			}
			s.ScheduleDetached(dd, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == Time(max)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(7)}); err != nil {
		t.Error(err)
	}
}

func TestDetachedSchedulingOrderAndRecycle(t *testing.T) {
	sim := New(1)
	var order []int
	sim.ScheduleDetached(30, func() { order = append(order, 3) })
	sim.ScheduleDetached(10, func() { order = append(order, 1) })
	sim.ScheduleDetached(20, func() { order = append(order, 2) })
	sim.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	// Recycled events must preserve FIFO among same-time events and keep
	// firing the right callbacks across many reuse generations.
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 1000 {
			sim.ScheduleDetached(1, chain)
		}
	}
	sim.ScheduleDetached(1, chain)
	sim.Run()
	if n != 1000 {
		t.Fatalf("chain fired %d times", n)
	}
}

func TestDetachedSameTimeFIFOWithRecycling(t *testing.T) {
	sim := New(1)
	// Populate the free list.
	for i := 0; i < 8; i++ {
		sim.ScheduleDetached(Duration(i), func() {})
	}
	sim.Run()
	// Same-time events scheduled from recycled objects must still fire in
	// scheduling order (seq is reassigned on reuse).
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		sim.ScheduleDetached(5, func() { order = append(order, i) })
	}
	sim.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestRunUntilBoundaryDetached pins RunUntil's inclusive boundary for
// recycled events and for ties exactly at the limit: all events at
// t == limit fire (in FIFO order), events after it stay pending, and the
// clock lands exactly on the limit.
func TestRunUntilBoundaryDetached(t *testing.T) {
	s := New(1)
	var order []int
	s.ScheduleAt(10, func() { order = append(order, 1) })
	s.ScheduleAt(10, func() { order = append(order, 2) })
	s.ScheduleDetached(10, func() { order = append(order, 3) })
	s.ScheduleAt(11, func() { order = append(order, 4) })
	s.RunUntil(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("boundary events fired as %v, want [1 2 3]", order)
	}
	if s.Now() != 10 {
		t.Errorf("Now() = %v, want 10", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1 (event after boundary)", s.Pending())
	}
}

type countCompleter struct {
	slot Slot
	n    int
}

func (c *countCompleter) Complete() { c.n++ }

// TestScheduleZeroAlloc pins every scheduling entry point at zero
// allocations once the free list is warm: the kernel recycles each event
// after it fires, whichever call scheduled it, and a Queue entry lives in
// its owner's record.
func TestScheduleZeroAlloc(t *testing.T) {
	s := New(1)
	fired := 0
	fn := func() { fired++ }
	var c countCompleter
	q := NewQueue(s)
	for _, tc := range []struct {
		name     string
		schedule func()
	}{
		{"ScheduleAt", func() { s.ScheduleAt(s.Now().Add(10), fn) }},
		{"ScheduleDetached", func() { s.ScheduleDetached(10, fn) }},
		{"Queue.Push", func() { q.Push(s.Now().Add(10), &c.slot, &c) }},
	} {
		tc.schedule()
		s.Run()
		if n := testing.AllocsPerRun(200, func() {
			tc.schedule()
			s.Run()
		}); n != 0 {
			t.Errorf("%s: %v allocs per schedule and fire, want 0", tc.name, n)
		}
	}
	// Each case fired once to warm up and 201 times under AllocsPerRun.
	if fired != 2*202 || c.n != 202 {
		t.Errorf("fired %d closures and %d completions, want %d and 202", fired, c.n, 2*202)
	}
}
