package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Registry is a named set of metrics plus an optional tracer. Metric
// creation and snapshotting take the registry mutex (management plane);
// the returned metric handles record lock-free, so nothing on the
// datapath ever touches the registry again after wiring.
type Registry struct {
	mu     sync.Mutex
	names  map[string]bool
	counts []*Counter
	hists  []*Histogram
	funcs  []gaugeFunc
	tracer *Tracer
}

type gaugeFunc struct {
	name string
	fn   func() float64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) claim(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.names[name] = true
}

// Counter creates and registers a counter. Duplicate names panic
// (wiring-time programming error).
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	c := &Counter{name: name}
	r.counts = append(r.counts, c)
	return c
}

// GaugeFunc registers a gauge evaluated at snapshot time — the zero-
// hot-path-cost way, and the only way, to expose state something else
// already maintains
// (table occupancy, pending simulator events). fn must be safe to call
// from the snapshotting goroutine.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.funcs = append(r.funcs, gaugeFunc{name: name, fn: fn})
}

// Histogram creates and registers a fixed-bucket histogram; bounds are
// sorted inclusive upper bounds (an overflow bin is added).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	h := newHistogram(name, bounds)
	r.hists = append(r.hists, h)
	return h
}

// SetTracer attaches the registry's packet-trace ring (at most one).
func (r *Registry) SetTracer(t *Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = t
}

// Tracer returns the attached trace ring (nil if none).
func (r *Registry) Tracer() *Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketSnap is one histogram bin: counts of samples <= UpperBound (the
// overflow bin has UpperBound 0 and Overflow true).
type BucketSnap struct {
	UpperBound uint64 `json:"le,omitempty"`
	Overflow   bool   `json:"overflow,omitempty"`
	Count      uint64 `json:"count"`
}

// HistogramSnap is one histogram in a snapshot.
type HistogramSnap struct {
	Name    string       `json:"name"`
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Min     uint64       `json:"min"`
	Max     uint64       `json:"max"`
	Mean    float64      `json:"mean"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time readout of a registry, ordered by metric
// name so two snapshots of the same state serialize identically.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
	// TraceSeen / TraceSampled summarize the attached tracer (0s if none).
	TraceSeen    uint64 `json:"trace_seen,omitempty"`
	TraceSampled uint64 `json:"trace_sampled,omitempty"`
}

// Snapshot reads every metric. Counters and histograms racing with
// recorders yield values that were each current at some instant during
// the call.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for _, c := range r.counts {
		s.Counters = append(s.Counters, CounterSnap{Name: c.name, Value: c.Value()})
	}
	for _, f := range r.funcs {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: f.name, Value: f.fn()})
	}
	for _, h := range r.hists {
		hs := HistogramSnap{
			Name: h.name, Count: h.Count(), Sum: h.Sum(),
			Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
		}
		for i, b := range h.bounds {
			hs.Buckets = append(hs.Buckets, BucketSnap{UpperBound: b, Count: h.counts[i].Load()})
		}
		hs.Buckets = append(hs.Buckets, BucketSnap{Overflow: true, Count: h.counts[len(h.bounds)].Load()})
		s.Histograms = append(s.Histograms, hs)
	}
	sortSnapshot(&s)
	if r.tracer != nil {
		s.TraceSeen = r.tracer.Seen()
		s.TraceSampled = r.tracer.Sampled()
	}
	return s
}

// sortSnapshot orders every metric slice by name so two snapshots of the
// same state serialize identically (shared by Registry.Snapshot and
// Fold.Snapshot).
func sortSnapshot(s *Snapshot) {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
}

// Counter returns the snapshotted value of a named counter (0, false if
// absent) — the convenient read side for tests and envelope folding.
func (s Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Histogram returns the snapshot of a named histogram.
func (s Snapshot) Histogram(name string) (HistogramSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnap{}, false
}

// MarshalJSONIndent renders the snapshot as the daemon's expvar-style
// metrics document.
func (s Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
