// Package runner is the deterministic fan-out harness used by every
// multi-trial experiment and by the sharded Monte-Carlo simulations: it
// runs n independent trials on a bounded worker pool and merges their
// results in trial order, while guaranteeing that the merged output is
// bit-identical regardless of worker count or goroutine scheduling.
//
// Determinism comes from two rules. First, a trial never shares mutable
// state with another trial: each invocation receives its own *rand.Rand,
// seeded from the root seed and the trial index through a SplitMix64
// mixer (TrialSeed), so the randomness a trial sees is a pure function of
// (seed, trial). Second, results are written into a slice indexed by
// trial and returned in that order, so the merge is independent of
// completion order. Together these make `-parallel 1` and `-parallel 64`
// produce the same bytes, which is what lets the experiment suite claim
// reproducibility while still using every core.
package runner

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
)

// Options configure a Map or Run invocation.
type Options struct {
	// Parallelism bounds the number of concurrent workers. Zero or
	// negative means GOMAXPROCS.
	Parallelism int
	// Seed is the root seed from which per-trial seeds are derived.
	Seed int64
	// Context, when non-nil, cancels the run early. Map returns
	// ctx.Err() and the partial results produced so far.
	Context context.Context
}

func (o Options) workers(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// TrialSeed derives the seed for one trial from the root seed using the
// SplitMix64 finalizer. Derived seeds are well-distributed even for
// consecutive roots and trials, and trial i's seed never depends on how
// many trials run or on which worker executes it.
func TrialSeed(root int64, trial int) int64 {
	z := uint64(root) + (uint64(trial)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// TrialRand returns the deterministic random source for one trial.
func TrialRand(root int64, trial int) *rand.Rand {
	return rand.New(rand.NewSource(TrialSeed(root, trial)))
}

// Map runs fn for trials 0..n-1 on up to Options.Parallelism workers and
// returns the results in trial order. fn receives the trial index and a
// private deterministic RNG; it must not touch state shared with other
// trials.
//
// On error, Map cancels remaining trials and returns the error raised by
// the lowest-numbered failing trial (deterministic first-error
// propagation: the same trial's error surfaces no matter which worker hit
// an error first in wall-clock time). The returned slice always has n
// entries; entries for trials that did not complete are zero values.
func Map[T any](n int, opts Options, fn func(trial int, rng *rand.Rand) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		errTrial = n // lowest failing trial index seen so far
	)
	fail := func(trial int, err error) {
		mu.Lock()
		if trial < errTrial {
			errTrial, firstErr = trial, err
		}
		mu.Unlock()
		cancel()
	}
	// superseded reports whether a trial a worker has already received can
	// be dropped: the caller gave up, or a lower trial has failed. Trials
	// are dispatched in increasing order, so when trial j fails every
	// i < j is already in some worker's hands — and must still run, or a
	// lower failure would go unreported whenever its worker was scheduled
	// after the cancel.
	superseded := func(trial int) bool {
		if opts.Context != nil && opts.Context.Err() != nil {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return trial > errTrial
	}

	workers := opts.workers(n)
	if workers == 1 {
		// Fast path: no goroutines, no channel — identical semantics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			r, err := fn(i, TrialRand(opts.Seed, i))
			if err != nil {
				fail(i, err)
				break
			}
			results[i] = r
		}
		return results, firstErr
	}

	trials := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range trials {
				if superseded(i) {
					continue // drain
				}
				r, err := fn(i, TrialRand(opts.Seed, i))
				if err != nil {
					fail(i, err)
					continue
				}
				results[i] = r
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case trials <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(trials)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err == nil && opts.Context != nil {
		err = opts.Context.Err()
	}
	return results, err
}

// Run executes heterogeneous jobs concurrently under the same pool
// discipline as Map and returns the error of the lowest-numbered failing
// job. It is how flexsfp-bench overlaps independent experiments.
func Run(opts Options, jobs ...func() error) error {
	_, err := Map(len(jobs), opts, func(i int, _ *rand.Rand) (struct{}, error) {
		return struct{}{}, jobs[i]()
	})
	return err
}
