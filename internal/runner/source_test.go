package runner

import (
	"math"
	"testing"
)

// TestSourceIsTrialSeedSequence ties Source to the repo-wide mixer: draw
// k of a source seeded s is TrialSeed(s, k), so the increment the source
// carries cannot drift from TrialSeed's.
func TestSourceIsTrialSeedSequence(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64} {
		src := Source(seed)
		for k := 0; k < 64; k++ {
			if got, want := src.Uint64(), uint64(TrialSeed(seed, k)); got != want {
				t.Fatalf("seed %d draw %d = %#x, want TrialSeed = %#x", seed, k, got, want)
			}
		}
	}
	var src Source
	src.Seed(42)
	if got, want := src.Int63(), TrialSeed(42, 0); got != int64(uint64(want)>>1) {
		t.Fatalf("Seed(42) then Int63 = %d, want TrialSeed(42, 0) >> 1", got)
	}
}
