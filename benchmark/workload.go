package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs. Every call of run is
// one repeat: it builds a fresh world from the seed, warms it, executes
// the workload's fixed amount of work inside a timed window, drains, and
// checks the outputs. Because the work is fixed and the world is rebuilt
// from the same seed, every repeat of a workload produces the same modeled
// result; only the host cost differs.
type workload interface {
	// run executes one repeat. tr is nil in an untraced repeat.
	run(tr *tracer) repeat
	// isolate drives the layers this workload exercises one at a time, on
	// the workload's own frames and keys, and reports a cost per layer.
	isolate(out *layerOut)
	// work describes the fixed work of one repeat, for the host descriptor.
	work() map[string]float64
}

// sizing selects the fixed work of one repeat: the full sizes measure,
// the quick sizes only prove that every path runs (tests).
type sizing struct {
	quick bool
	seed  int64
}

// rounds is how many times an isolated driver repeats its loop; it reports
// the median round.
func (s sizing) rounds() int { return s.pick(5, 1) }

// pick returns full or quick.
func (s sizing) pick(full, quick int) int {
	if s.quick {
		return quick
	}
	return full
}

// repeat is the outcome of one run call.
type repeat struct {
	setupS  float64
	win     window
	perOpNs []float64 // one per 1-sim-ms slice, RPC or rollout
	calibNs float64   // mean of the spins before and after the repeat

	// attempted/failed count correctness checks and operations whose
	// outcome was checked; modeled queue drops are a result, not a failure.
	attempted, failed uint64
	failures          []string

	// exact holds values that must repeat bit for bit: every modeled_*
	// metric and the layers' counters. digest covers the model's outputs
	// only, so a host-only change leaves it unchanged.
	exact  map[string]float64
	digest string

	// samples holds extra per-repeat sample sets (e.g. ota_push_ms).
	samples map[string][]float64
}

func (r *repeat) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// count adds n checked operations of which bad failed.
func (r *repeat) count(n, bad uint64, format string, args ...any) {
	r.attempted += n
	r.failed += bad
	if bad > 0 && len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// digester builds a repeat's model digest from named values in call order.
type digester struct{ b strings.Builder }

func (d *digester) add(name string, v any) { fmt.Fprintf(&d.b, "%s=%v;", name, v) }

func (d *digester) sum() string {
	h := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(h[:8])
}

// layerOut collects per-layer metric values produced outside the repeats:
// isolated drivers, span summaries and reruns.
type layerOut struct {
	values            map[string]float64
	attempted, failed uint64
	failures          []string
}

func (o *layerOut) set(name string, v float64) { o.values[name] = v }

func (o *layerOut) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// timeLoop runs fn n times per round for rounds rounds and returns the
// median ns per call. Isolated drivers use it so one preempted round does
// not decide a layer's number.
func timeLoop(rounds, n int, fn func()) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
