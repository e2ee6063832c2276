package netsim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleFire measures the steady-state event loop: one event in
// flight at a time, each firing schedules the next (the pattern of the
// trafficgen emit loop and the PPE verdict path). With the event free-list
// this runs allocation-free after warm-up.
func BenchmarkScheduleFire(b *testing.B) {
	sim := New(1)
	b.ReportAllocs()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			sim.ScheduleDetached(10, tick)
		}
	}
	sim.ScheduleDetached(10, tick)
	b.ResetTimer()
	sim.Run()
}

// BenchmarkScheduleBurst measures heap behavior with a deep pending queue:
// 1024 events scheduled at once, then drained.
func BenchmarkScheduleBurst(b *testing.B) {
	sim := New(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			sim.ScheduleDetached(Duration(j%64), fn)
		}
		sim.Run()
	}
}

// BenchmarkScheduleHandle measures the handle-returning Schedule path
// (cancelable events are never pooled).
func BenchmarkScheduleHandle(b *testing.B) {
	sim := New(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Schedule(1, fn)
		sim.Run()
	}
}

// BenchmarkSchedule isolates the 4-ary heap push: b.N events scheduled
// at pseudo-random offsets into an ever-deepening heap, drained outside
// the timed region. Sift-up cost dominates.
func BenchmarkSchedule(b *testing.B) {
	sim := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ScheduleDetached(Duration(i*2654435761%4096), fn)
	}
	b.StopTimer()
	sim.Run()
}

// BenchmarkStep isolates the 4-ary heap pop: a 4096-event heap stepped
// one event at a time (Step pays sift-down over four-way children; the
// shallow tree is the point of the arity bump).
func BenchmarkStep(b *testing.B) {
	sim := New(1)
	fn := func() {}
	fill := func() {
		for j := 0; j < 4096; j++ {
			sim.ScheduleDetached(Duration(j*2654435761%4096), fn)
		}
	}
	fill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sim.Step() {
			b.StopTimer()
			fill()
			b.StartTimer()
		}
	}
	b.StopTimer()
	sim.Run()
}

// BenchmarkShardedRing measures the parallel core end to end: a token
// ring where every hop crosses a portal (worst case for the window
// synchronizer — lookahead bounds every window, all frames are
// cross-shard and only one shard has work in any window).
func BenchmarkShardedRing(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sh := NewSharded(1, shards)
			const nodes = 4
			ports := make([]*Portal, nodes)
			var hops int
			for i := 0; i < nodes; i++ {
				i := i
				next := (i + 1) % nodes
				ports[i] = sh.Connect(sh.ShardFor(i), sh.ShardFor(next), 100, func(data []byte) {
					hops++
					if hops < b.N {
						ports[next].Send(data)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			ports[0].Send([]byte{1})
			sh.Run()
		})
	}
}

// BenchmarkShardedWindow measures one window of the 2-shard loop — the
// barrier plus k local events on each shard — so barrier ns/window reads
// beside BenchmarkScheduleFire's ns/event. Each shard runs k self-rearming
// tickers of period 100; an idle portal sets the lookahead to 100, so
// every window holds exactly k events per shard. One op is one window.
func BenchmarkShardedWindow(b *testing.B) {
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("events=%d", k), func(b *testing.B) {
			sh := NewSharded(1, 2)
			sh.Connect(0, 1, 100, func([]byte) {})
			stop := Time(b.N) * 100
			for i := 0; i < 2; i++ {
				sim := sh.Shard(i)
				for j := 0; j < k; j++ {
					var tick func()
					tick = func() {
						if sim.Now() < stop {
							sim.ScheduleDetached(100, tick)
						}
					}
					sim.ScheduleAtDetached(Time(j), tick)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			sh.Run()
		})
	}
}
