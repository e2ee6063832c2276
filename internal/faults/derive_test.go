package faults

import (
	"sync"
	"testing"
)

// rolls replays n Roll decisions at a fixed probability on a copy of in.
func rolls(in Injector, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = in.Roll(0.5)
	}
	return out
}

func TestDeriveDeterministicPerLane(t *testing.T) {
	parent := New(42, Rates{ConnDrop: 0.1})
	a := rolls(parent.Derive(7), 100)
	b := rolls(parent.Derive(7), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lane 7 draw %d diverged between two Derives", i)
		}
	}
	c := rolls(parent.Derive(8), 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("lanes 7 and 8 produced identical streams")
	}
}

func TestDeriveInheritsRates(t *testing.T) {
	rates := Rates{ConnDrop: 0.25, Stall: 0.5}
	d := New(1, rates).Derive(0)
	if d.Rates() != rates {
		t.Fatalf("derived rates = %+v, want %+v", d.Rates(), rates)
	}
	if d.Stats().Total() != 0 {
		t.Fatal("derived injector inherited parent stats")
	}
}

func TestDeriveDoesNotAdvanceSeededParent(t *testing.T) {
	a, b := New(9, Rates{}), New(9, Rates{})
	a.Derive(1)
	a.Derive(2)
	ra, rb := rolls(*a, 50), rolls(*b, 50)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("Derive perturbed the parent's own stream at draw %d", i)
		}
	}
}

// TestDeriveConcurrent is the race-detector test for the satellite: many
// fleet workers deriving and using per-lane injectors from one parent at
// once, which one shared injector would never allow.
func TestDeriveConcurrent(t *testing.T) {
	parent := New(77, Rates{ConnDrop: 0.2})
	const workers = 16
	streams := make([][]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := parent.Derive(uint64(w))
			out := make([]bool, 200)
			for i := range out {
				out[i] = in.Roll(0.3)
			}
			streams[w] = out
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		want := make([]bool, 200)
		in := parent.Derive(uint64(w))
		for i := range want {
			want[i] = in.Roll(0.3)
		}
		for i := range want {
			if streams[w][i] != want[i] {
				t.Fatalf("worker %d stream not deterministic at draw %d", w, i)
			}
		}
	}
}
