package faults

import (
	"math"
	"math/rand"
	"testing"

	"flexsfp/internal/runner"
)

// TestLaneSourceIsTrialSeedSequence ties laneSource to the repo-wide
// mixer: draw k of a source seeded s is runner.TrialSeed(s, k), so the
// increment the source carries cannot drift from TrialSeed's.
func TestLaneSourceIsTrialSeedSequence(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64} {
		src := laneSource(seed)
		for k := 0; k < 64; k++ {
			if got, want := src.Uint64(), uint64(runner.TrialSeed(seed, k)); got != want {
				t.Fatalf("seed %d draw %d = %#x, want TrialSeed = %#x", seed, k, got, want)
			}
		}
	}
	var src laneSource
	src.Seed(42)
	if got, want := src.Int63(), runner.TrialSeed(42, 0); got != int64(uint64(want)>>1) {
		t.Fatalf("Seed(42) then Int63 = %d, want TrialSeed(42, 0) >> 1", got)
	}
}

// TestNewKeepsMathRandStream: only Derive'd lanes moved to the compact
// source; New's stream is what the experiment goldens pin.
func TestNewKeepsMathRandStream(t *testing.T) {
	in := New(42, Rates{})
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if got, want := in.Roll(0.5), ref.Float64() < 0.5; got != want {
			t.Fatalf("draw %d: New(42) left math/rand's stream", i)
		}
	}
}

// TestDeriveOfDerive: a lane is itself a seeded parent, so its own lanes
// are pure and replayable too.
func TestDeriveOfDerive(t *testing.T) {
	a := rolls(New(3, Rates{}).Derive(4).Derive(5), 50)
	b := rolls(New(3, Rates{}).Derive(4).Derive(5), 50)
	c := rolls(New(3, Rates{}).Derive(4).Derive(6), 50)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lane 4/5 draw %d diverged between two Derives", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("lanes 4/5 and 4/6 produced identical streams")
	}
}

// TestFirstRollsAcrossLanes: a fleet member draws only a handful of
// numbers from its lane, so what has to be uniform is each of the first
// few draws taken across many consecutive lanes, not a long run of one
// lane.
func TestFirstRollsAcrossLanes(t *testing.T) {
	const lanes, draws = 100_000, 8
	for _, seed := range []int64{42, 7} {
		parent := New(seed, Rates{})
		for _, p := range []float64{0.02, 0.5} {
			var hits [draws]int
			for lane := uint64(0); lane < lanes; lane++ {
				in := parent.Derive(lane)
				for k := range hits {
					if in.Roll(p) {
						hits[k]++
					}
				}
			}
			sigma := math.Sqrt(lanes * p * (1 - p))
			for k, n := range hits {
				if dev := math.Abs(float64(n) - lanes*p); dev > 4*sigma {
					t.Errorf("seed %d p=%.2f: draw %d hit on %d of %d lanes, %.1fσ from %.0f",
						seed, p, k, n, lanes, dev/sigma, lanes*p)
				}
			}
		}
	}
}
