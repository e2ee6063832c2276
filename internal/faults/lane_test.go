package faults

import (
	"math"
	"testing"

	"flexsfp/internal/runner"
)

// TestDeriveIsNewOfTrialSeed: a lane is exactly the injector New builds
// from the lane's derived seed, so the fleet's lanes and every other
// injector share one seeding rule.
func TestDeriveIsNewOfTrialSeed(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64} {
		parent := New(seed, Rates{})
		for _, lane := range []uint64{0, 1, 7, 99_999} {
			a, b := parent.Derive(lane), New(runner.TrialSeed(seed, int(lane)), Rates{})
			for i := 0; i < 64; i++ {
				if x, y := a.float64(), b.float64(); x != y {
					t.Fatalf("seed %d lane %d draw %d: Derive rolled %v, New(TrialSeed) %v", seed, lane, i, x, y)
				}
			}
		}
	}
}

// TestDeriveOfDerive: a lane is itself a seeded parent, so its own lanes
// are pure and replayable too.
func TestDeriveOfDerive(t *testing.T) {
	lane := func(outer, inner uint64) Injector {
		l := New(3, Rates{}).Derive(outer)
		return l.Derive(inner)
	}
	a, b, c := rolls(lane(4, 5), 50), rolls(lane(4, 5), 50), rolls(lane(4, 6), 50)
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
