package telemetry

// Hierarchical snapshot aggregation for fleet-scale telemetry (the
// management plane of ROADMAP item 1). A Fold accumulates many Snapshots
// — or other Folds — into one, which is what lets a sharded fleet
// controller aggregate 100k+ modules in two layers: each worker shard
// folds its own members' snapshots (Add, touches per-module state), and
// the global merge combines only the W per-shard folds (Merge, never
// sees a module). The global layer's cost is therefore a function of
// shard count and metric-name cardinality, not of fleet size.
//
// Fold semantics per metric kind:
//   - counters: summed by name.
//   - gauges: summed by name (fleet totals of occupancy-style gauges;
//     callers wanting means can divide by the member count).
//   - histograms: bucket counts are summed positionally when the bucket
//     bounds agree; when two histograms of the same name disagree on
//     bounds, the buckets are dropped and only count/sum/min/max merge.
//   - trace seen/sampled totals: summed.
//
// A Fold is not safe for concurrent use; give each shard its own and
// Merge them from a single goroutine.
type Fold struct {
	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]*histFold
	seen     uint64
	sampled  uint64

	snaps  int // member snapshots folded in (transitively, through Merge)
	merges int // direct Merge calls on this fold
}

type histFold struct {
	count    uint64
	sum      uint64
	min      uint64
	max      uint64
	any      bool // at least one sample seen (min/max valid)
	bounds   []uint64
	counts   []uint64
	boundsOK bool
}

// NewFold returns an empty fold.
func NewFold() *Fold {
	return &Fold{
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histFold),
	}
}

// Add folds one member snapshot in (the shard layer). It copies what it
// keeps and retains no reference to s's slices, so the caller may refill
// one snapshot for every member it folds.
func (f *Fold) Add(s Snapshot) {
	f.snaps++
	for _, c := range s.Counters {
		f.counters[c.Name] += c.Value
	}
	for _, g := range s.Gauges {
		f.gauges[g.Name] += g.Value
	}
	for _, h := range s.Histograms {
		f.addHist(h)
	}
	f.seen += s.TraceSeen
	f.sampled += s.TraceSampled
}

func (f *Fold) addHist(h HistogramSnap) {
	hf, ok := f.hists[h.Name]
	if !ok {
		hf = &histFold{boundsOK: true}
		for _, b := range h.Buckets {
			if b.Overflow {
				hf.bounds = append(hf.bounds, 0)
			} else {
				hf.bounds = append(hf.bounds, b.UpperBound)
			}
			hf.counts = append(hf.counts, b.Count)
		}
		f.hists[h.Name] = hf
	} else if hf.boundsOK {
		if len(h.Buckets) != len(hf.bounds) {
			hf.dropBuckets()
		} else {
			for i, b := range h.Buckets {
				ub := b.UpperBound
				if b.Overflow {
					ub = 0
				}
				if ub != hf.bounds[i] {
					hf.dropBuckets()
					break
				}
			}
			if hf.boundsOK {
				for i, b := range h.Buckets {
					hf.counts[i] += b.Count
				}
			}
		}
	}
	hf.count += h.Count
	hf.sum += h.Sum
	if h.Count > 0 {
		hf.observeRange(h.Min, h.Max)
	}
}

func (hf *histFold) dropBuckets() {
	hf.boundsOK = false
	hf.bounds, hf.counts = nil, nil
}

func (hf *histFold) observeRange(min, max uint64) {
	if !hf.any || min < hf.min {
		hf.min = min
	}
	if !hf.any || max > hf.max {
		hf.max = max
	}
	hf.any = true
}

// Merge folds another fold in (the global layer). It reads only o's
// aggregated state — by construction it cannot touch any per-module
// snapshot that fed o.
func (f *Fold) Merge(o *Fold) {
	f.merges++
	f.snaps += o.snaps
	for n, v := range o.counters {
		f.counters[n] += v
	}
	for n, v := range o.gauges {
		f.gauges[n] += v
	}
	for n, oh := range o.hists {
		hf, ok := f.hists[n]
		if !ok {
			hf = &histFold{boundsOK: true}
			if oh.boundsOK {
				hf.bounds = append([]uint64(nil), oh.bounds...)
				hf.counts = append([]uint64(nil), oh.counts...)
			} else {
				hf.boundsOK = false
			}
			hf.count, hf.sum = oh.count, oh.sum
			hf.min, hf.max, hf.any = oh.min, oh.max, oh.any
			f.hists[n] = hf
			continue
		}
		sameBounds := hf.boundsOK && oh.boundsOK && len(hf.bounds) == len(oh.bounds)
		if sameBounds {
			for i, b := range oh.bounds {
				if b != hf.bounds[i] {
					sameBounds = false
					break
				}
			}
		}
		if sameBounds {
			for i := range oh.counts {
				hf.counts[i] += oh.counts[i]
			}
		} else {
			hf.dropBuckets()
		}
		hf.count += oh.count
		hf.sum += oh.sum
		if oh.any {
			hf.observeRange(oh.min, oh.max)
		}
	}
	f.seen += o.seen
	f.sampled += o.sampled
}

// Folded reports how many member snapshots fed this fold (transitively)
// and how many direct Merge calls it absorbed — the instrumentation the
// fleet experiment uses to show the global merge touched W folds, not N
// modules.
func (f *Fold) Folded() (snaps, merges int) { return f.snaps, f.merges }

// Snapshot renders the fold as a deterministic Snapshot (sorted by
// metric name, like Registry.Snapshot), so folded fleet telemetry
// serializes identically for identical inputs regardless of fold order.
func (f *Fold) Snapshot() Snapshot {
	var s Snapshot
	for n, v := range f.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: n, Value: v})
	}
	for n, v := range f.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: n, Value: v})
	}
	for n, hf := range f.hists {
		hs := HistogramSnap{Name: n, Count: hf.count, Sum: hf.sum}
		if hf.any {
			hs.Min, hs.Max = hf.min, hf.max
		}
		if hf.count > 0 {
			hs.Mean = float64(hf.sum) / float64(hf.count)
		}
		for i, b := range hf.bounds {
			if i == len(hf.bounds)-1 && b == 0 {
				hs.Buckets = append(hs.Buckets, BucketSnap{Overflow: true, Count: hf.counts[i]})
			} else {
				hs.Buckets = append(hs.Buckets, BucketSnap{UpperBound: b, Count: hf.counts[i]})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sortSnapshot(&s)
	s.TraceSeen = f.seen
	s.TraceSampled = f.sampled
	return s
}
