package netsim

import (
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
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
		s.Schedule(100, func() { got = append(got, i) })
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
	s.Schedule(-5, func() { fired = true })
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
	s.Schedule(50, func() {
		s.ScheduleAt(10, func() {}) // in the past: clamp to now=50
	})
	s.Run()
	if s.Now() != 50 {
		t.Errorf("Now() = %v, want 50", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(10, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(20, func() { fired = true })
	s.Schedule(10, func() { e.Cancel() })
	s.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, d := range []Duration{5, 10, 15, 20} {
		d := d
		s.Schedule(d, func() { fired = append(fired, s.Now()) })
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
	s.Schedule(10, func() { fired = true })
	s.RunUntil(10)
	if !fired {
		t.Fatal("event exactly at boundary did not fire")
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	s.Schedule(100, func() {})
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
			s.Schedule(1, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if s.Now() != 99 {
		t.Errorf("Now() = %v, want 99", s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	count := 0
	s.Every(10, func() bool {
		count++
		return count < 5
	})
	s.Run()
	if count != 5 {
		t.Errorf("ticker fired %d times, want 5", count)
	}
	if s.Now() != 50 {
		t.Errorf("Now() = %v, want 50", s.Now())
	}
}

func TestTickerStop(t *testing.T) {
	s := New(1)
	count := 0
	tk := s.Every(10, func() bool { count++; return true })
	s.Schedule(35, func() { tk.Stop() })
	s.RunUntil(1000)
	if count != 3 {
		t.Errorf("ticker fired %d times after Stop at t=35, want 3", count)
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
			s.Schedule(dd, func() { fired = append(fired, s.Now()) })
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
	sim.Schedule(20, func() { order = append(order, 2) })
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

func TestDetachedDoesNotRecycleHandles(t *testing.T) {
	sim := New(1)
	// A canceled handle event must stay canceled even if detached events
	// churn the free list around it.
	ev := sim.Schedule(50, func() { t.Fatal("canceled event fired") })
	for i := 0; i < 32; i++ {
		sim.ScheduleDetached(Duration(i), func() {})
	}
	ev.Cancel()
	sim.Run()
	if !ev.Canceled() {
		t.Fatal("handle lost cancellation")
	}
}

// TestCancelPooledDetached exercises Event.Cancel on an event scheduled
// through the pooled detached path. External callers hold no handle for
// detached events, but the internal schedule(t, fn, true) entry (used by
// ScheduleCompletionAt and the link/engine fast paths) does return one,
// and a cancellation there must neither fire the callback nor corrupt the
// free list for subsequent pooled scheduling.
func TestCancelPooledDetached(t *testing.T) {
	s := New(1)
	fired := false
	e := s.schedule(10, func() { fired = true }, true)
	e.Cancel()
	later := false
	s.ScheduleDetached(20, func() { later = true })
	s.Run()
	if fired {
		t.Fatal("canceled pooled event fired")
	}
	if !later {
		t.Fatal("pooled scheduling after a canceled pooled event did not fire")
	}
	if s.Fired() != 1 {
		t.Errorf("Fired() = %d, want 1 (cancellation must not count)", s.Fired())
	}
	// The pool keeps working: recycled events still fire in order.
	n := 0
	for i := 0; i < 4; i++ {
		s.ScheduleDetached(Duration(i+1), func() { n++ })
	}
	s.Run()
	if n != 4 {
		t.Errorf("post-cancel pooled events fired %d times, want 4", n)
	}
}

// TestRunUntilBoundaryDetached pins RunUntil's inclusive boundary for the
// pooled detached path and for ties exactly at the limit: all events at
// t == limit fire (in FIFO order), events after it stay pending, and the
// clock lands exactly on the limit.
func TestRunUntilBoundaryDetached(t *testing.T) {
	s := New(1)
	var order []int
	s.ScheduleAtDetached(10, func() { order = append(order, 1) })
	s.ScheduleAtDetached(10, func() { order = append(order, 2) })
	s.Schedule(10, func() { order = append(order, 3) })
	s.ScheduleAtDetached(11, func() { order = append(order, 4) })
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

// TestTickerStopFromOwnCallback covers a ticker stopped from inside its
// own callback. Returning true after calling Stop must still honor the
// Stop — the ticker must not re-arm.
func TestTickerStopFromOwnCallback(t *testing.T) {
	s := New(1)
	count := 0
	var tk *Ticker
	tk = s.Every(10, func() bool {
		count++
		if count == 2 {
			tk.Stop()
		}
		return true // deliberately "keep going" after Stop
	})
	s.RunUntil(1000)
	if count != 2 {
		t.Errorf("ticker fired %d times, want 2 (Stop from own callback)", count)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0 after self-stop", s.Pending())
	}
}
