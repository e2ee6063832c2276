package ppe

import (
	"sync"
	"testing"
)

func TestCounterBankBasics(t *testing.T) {
	b := NewCounterBank("ctr", 4)
	b.Inc(0, 64)
	b.Inc(0, 1500)
	b.Inc(3, 100)
	if p, by := b.Read(0); p != 2 || by != 1564 {
		t.Fatalf("counter 0 = %d/%d", p, by)
	}
	if p, by := b.Read(3); p != 1 || by != 100 {
		t.Fatalf("counter 3 = %d/%d", p, by)
	}
	// Out-of-range indexes are silently ignored.
	b.Inc(-1, 10)
	b.Inc(4, 10)
	if p, by := b.Read(-1); p != 0 || by != 0 {
		t.Fatalf("out-of-range read = %d/%d", p, by)
	}
}

// TestCounterBankConsistentReads is the torn-read regression (run under
// -race in make check): every Inc adds one packet of exactly frameSize
// bytes, so any read where bytes != packets*frameSize has observed a
// half-applied (packets, bytes) pair — precisely what the old two
// independent atomics allowed.
func TestCounterBankConsistentReads(t *testing.T) {
	const frameSize = 100
	b := NewCounterBank("ctr", 1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				b.Inc(0, frameSize)
			}
		}()
	}
	var rd sync.WaitGroup
	for r := 0; r < 2; r++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			for {
				p, by := b.Read(0)
				if by != p*frameSize {
					t.Errorf("torn read: %d packets / %d bytes", p, by)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	if p, by := b.Read(0); p != 80000 || by != 80000*frameSize {
		t.Fatalf("final = %d/%d", p, by)
	}
}

func TestCounterBankIncZeroAlloc(t *testing.T) {
	b := NewCounterBank("ctr", 8)
	if n := testing.AllocsPerRun(200, func() {
		b.Inc(3, 64)
	}); n != 0 {
		t.Fatalf("CounterBank.Inc allocates %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		b.Read(3)
	}); n != 0 {
		t.Fatalf("CounterBank.Read allocates %v allocs/op", n)
	}
}
