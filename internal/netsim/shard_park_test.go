//go:build unix

package netsim

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestShardedWaitersPark: while one shard spends 50 ms inside a single
// event, the shard waiting for it at the barrier — a worker for shard 0,
// the caller's goroutine for shard 1 — must give up spinning and yielding
// and park. A waiter that spins for the whole window doubles the
// process's CPU time; parked, CPU stays near wall.
func TestShardedWaitersPark(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("with one P every waiter parks at once; nothing to tell apart")
	}
	const busy = 50 * time.Millisecond
	for busyShard := 0; busyShard < 2; busyShard++ {
		sh := NewSharded(1, 2)
		sh.Connect(0, 1, 10, func([]byte) {})
		sh.Shard(busyShard).ScheduleAt(1, func() {
			for start := time.Now(); time.Since(start) < busy; {
			}
		})
		cpu0, wall0 := cpuTime(t), time.Now()
		sh.Run()
		cpu, wall := cpuTime(t)-cpu0, time.Since(wall0)
		if cpu > wall*3/2 {
			t.Errorf("busy shard %d: %v of CPU over %v of wall: a waiter did not park", busyShard, cpu, wall)
		}
		if st := sh.Stats(); st.ParkWaits == 0 {
			t.Errorf("busy shard %d: no wait parked (%v)", busyShard, st)
		}
	}
}
