package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flexsfp/internal/runner"
)

// TestOneSeedDiscipline: every simulator stream is runner's source under
// runner's seeding rule. New(s) draws runner.NewRand(s); shard i of
// NewSharded(s, n) draws runner.TrialRand(s, i).
func TestOneSeedDiscipline(t *testing.T) {
	same := func(t *testing.T, what string, got, want *rand.Rand) {
		t.Helper()
		for k := 0; k < 64; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("%s draw %d = %#x, want %#x", what, k, g, w)
			}
		}
	}
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64} {
		same(t, fmt.Sprintf("New(%d)", seed), New(seed).Rand(), runner.NewRand(seed))
		sh := NewSharded(seed, 4)
		for i := 0; i < sh.Shards(); i++ {
			same(t, fmt.Sprintf("NewSharded(%d, 4).Shard(%d)", seed, i), sh.Shard(i).Rand(), runner.TrialRand(seed, i))
		}
	}
}
