package faults

import (
	"math"
	"math/rand"
	"testing"

	"flexsfp/internal/runner"
)

// countedSource is a runner.Source that counts the Int63 draws rand.Rand
// takes from it.
type countedSource struct {
	runner.Source
	draws int
}

func (s *countedSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

// checkDrawsMatchRand draws float64 and intn(n) alternately from New(seed)
// and Float64 and Intn(n) from rand.New over the same source, and fails
// at the first value that differs or if the two streams end in different
// states. It returns how many Int63 draws rand.Rand took.
func checkDrawsMatchRand(t *testing.T, seed int64, n, draws int) int {
	t.Helper()
	in := New(seed, Rates{})
	ref := &countedSource{Source: runner.Source(seed)}
	r := rand.New(ref)
	for i := 0; i < draws; i++ {
		if got, want := in.float64(), r.Float64(); got != want {
			t.Fatalf("seed %d n %d draw %d: float64 = %v, rand.Float64 = %v", seed, n, i, got, want)
		}
		if got, want := in.intn(n), r.Intn(n); got != want {
			t.Fatalf("seed %d n %d draw %d: intn = %d, rand.Intn = %d", seed, n, i, got, want)
		}
	}
	if in.src != ref.Source {
		t.Fatalf("seed %d n %d: the injector's stream ended at %#x, rand.Rand's at %#x", seed, n, in.src, ref.Source)
	}
	return ref.draws
}

// TestDrawsMatchRand is the differential wall for the injector's draws:
// every fault schedule was pinned while they came from a rand.Rand over
// the same runner.Source. At n = 1<<30+1 Int31n rejects about half its
// draws, so the rejection branch runs there.
func TestDrawsMatchRand(t *testing.T) {
	const draws = 512
	for _, seed := range []int64{0, -1, math.MinInt64, 42} {
		for _, n := range []int{1, 2, 3, 8, 255, 256, 1<<30 + 1} {
			taken := checkDrawsMatchRand(t, seed, n, draws)
			if n == 1<<30+1 && taken < 2*draws+draws/4 {
				t.Errorf("seed %d n %d: %d draws for %d values, want the rejection branch to run", seed, n, taken, 2*draws)
			}
		}
	}
}

// FuzzInjectorVsRand extends TestDrawsMatchRand to any seed and any n in
// [1, 1<<31).
func FuzzInjectorVsRand(f *testing.F) {
	for _, seed := range []int64{0, -1, math.MinInt64} {
		for _, n := range []uint32{1, 2, 3, 8, 255, 256, 1<<30 + 1} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint32) {
		checkDrawsMatchRand(t, seed, int((n-1)%math.MaxInt32)+1, 64)
	})
}
