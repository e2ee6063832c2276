package netsim

import (
	"fmt"
	"math/rand"
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

// markWorld runs a random event program on one simulator and checks
// every probe's Passed against its event. Failures are recorded, not
// raised, because sharded callbacks run on worker goroutines.
type markWorld struct {
	sim    *Simulator
	rng    *rand.Rand
	probes []*markProbe
	budget int
	send   func() // optional: a portal message out of this shard
	bad    string
}

// check compares every probe with its event. drained says a run variant
// has just fired everything at or before now, which decides bare probes
// at now as well.
func (w *markWorld) check(where string, drained bool) {
	if w.bad != "" {
		return
	}
	now := w.sim.Now()
	for i, p := range w.probes {
		want := p.fired
		if p.bare {
			if p.at == now && !drained {
				continue
			}
			want = p.at <= now
		}
		if got := w.sim.Passed(p.m); got != want {
			w.bad = fmt.Sprintf("%s at %d: probe %d %+v: Passed = %v, its event fired = %v",
				where, now, i, p, got, want)
			return
		}
	}
}

// reserve takes up to n probes: each a MarkAt and, at once, a real event at
// the same instant, which takes the adjacent sequence number (or, for a
// bare probe, nothing). Instants are now half the time (same-time order
// then rests on sequence numbers alone), sometimes in the past (both
// clamp to now).
func (w *markWorld) reserve(n int) {
	for k := 0; k < n && w.budget > 0; k++ {
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
		w.sim.ScheduleAt(at, func() {
			p.fired = true
			w.check("callback", false)
			w.reserve(w.rng.Intn(3))
			if w.send != nil && w.rng.Intn(3) == 0 {
				w.send()
			}
		})
	}
}

// TestMarkMatchesEvent is the kernel property behind marks: Passed(m)
// answers exactly "has the event that would have taken m's place fired",
// read inside every callback and after Step, RunUntil, RunFor and Run, on
// a plain simulator and inside Sharded windows. Probes reserved right
// after a run variant returns, at the current instant, catch a Passed
// that admits the frontier's own sequence number; a probe's own callback
// catches a MarkAt that does not consume its sequence number.
func TestMarkMatchesEvent(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		w := &markWorld{sim: New(seed), rng: runner.NewRand(seed), budget: 150}
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
		if w.bad != "" {
			t.Fatalf("seed %d: %s", seed, w.bad)
		}
	}

	for _, shards := range []int{1, 2} {
		for seed := int64(0); seed < 40; seed++ {
			sh := NewSharded(seed, shards)
			worlds := make([]*markWorld, shards)
			for i := range worlds {
				worlds[i] = &markWorld{sim: sh.Shard(i), rng: sh.Stream(i), budget: 120}
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
