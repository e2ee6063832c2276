package telemetry

import (
	"reflect"
	"testing"
)

var (
	fuzzCounterNames = []string{"ota_boots", "ota_fallbacks", "ota_pushes", "ota_retries", "ota_boot", ""}
	fuzzGaugeNames   = []string{"occupancy", "temp_c"}
	fuzzHistNames    = []string{"ota_member_cost_ns", "push_ns", "ota_member_cost"}
)

type byteReader []byte

// next returns the next byte, or 0 once the input is spent.
func (r *byteReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// fuzzSnapshot returns the next snapshot of a fuzzed sequence: prev's
// schema (names, order, bucket bounds) changed the way the next byte
// says, with fresh values from the bytes after it.
func fuzzSnapshot(r *byteReader, prev Snapshot) Snapshot {
	s := Snapshot{
		Counters:   append([]CounterSnap(nil), prev.Counters...),
		Gauges:     append([]GaugeSnap(nil), prev.Gauges...),
		Histograms: append([]HistogramSnap(nil), prev.Histograms...),
	}
	for i := range s.Histograms {
		s.Histograms[i].Buckets = append([]BucketSnap(nil), s.Histograms[i].Buckets...)
	}
	op, arg := r.next(), int(r.next())
	switch op % 8 {
	case 0: // the same schema
	case 1: // reordered
		if n := len(s.Counters); n > 1 {
			i, j := arg%n, arg/n%n
			s.Counters[i], s.Counters[j] = s.Counters[j], s.Counters[i]
		}
		if n := len(s.Histograms); n > 1 {
			s.Histograms[0], s.Histograms[n-1] = s.Histograms[n-1], s.Histograms[0]
		}
	case 2: // a counter or histogram dropped
		if n := len(s.Counters); n > 0 && arg&1 == 0 {
			s.Counters = append(s.Counters[:arg/2%n], s.Counters[arg/2%n+1:]...)
		} else if n := len(s.Histograms); n > 0 {
			s.Histograms = append(s.Histograms[:arg/2%n], s.Histograms[arg/2%n+1:]...)
		}
	case 3: // a counter or histogram added
		if arg&1 == 0 {
			i := arg / 2 % (len(s.Counters) + 1)
			c := CounterSnap{Name: fuzzCounterNames[arg/2%len(fuzzCounterNames)]}
			s.Counters = append(s.Counters[:i], append([]CounterSnap{c}, s.Counters[i:]...)...)
		} else {
			h := HistogramSnap{Name: fuzzHistNames[arg/2%len(fuzzHistNames)]}
			for k := range arg % 4 {
				h.Buckets = append(h.Buckets, BucketSnap{UpperBound: uint64(10 << k)})
			}
			if arg&4 != 0 {
				h.Buckets = append(h.Buckets, BucketSnap{Overflow: true})
			}
			s.Histograms = append(s.Histograms, h)
		}
	case 4: // a different name at the same position
		if n := len(s.Counters); n > 0 {
			s.Counters[arg%n].Name = fuzzCounterNames[arg/n%len(fuzzCounterNames)]
		}
		if n := len(s.Histograms); n > 0 && arg&0x80 != 0 {
			s.Histograms[arg%n].Name = fuzzHistNames[arg/n%len(fuzzHistNames)]
		}
	case 5: // bucket bounds or bucket count changed
		if n := len(s.Histograms); n > 0 {
			h := &s.Histograms[arg%n]
			switch {
			case len(h.Buckets) > 0 && arg&0x10 == 0:
				b := &h.Buckets[arg/n%len(h.Buckets)]
				b.UpperBound += uint64(arg&3) + 1
				b.Overflow = false
			case arg&0x20 != 0 && len(h.Buckets) > 0:
				h.Buckets = h.Buckets[:len(h.Buckets)-1]
			default:
				h.Buckets = append(h.Buckets, BucketSnap{Overflow: arg&0x40 != 0, UpperBound: uint64(arg)})
			}
		}
	case 6: // gauges change
		if len(s.Gauges) > 0 && arg&1 == 0 {
			s.Gauges = s.Gauges[1:]
		} else {
			s.Gauges = append(s.Gauges, GaugeSnap{Name: fuzzGaugeNames[arg/2%len(fuzzGaugeNames)]})
		}
	case 7: // a schema of its own
		s = Snapshot{}
		for k := range arg % 5 {
			s.Counters = append(s.Counters, CounterSnap{Name: fuzzCounterNames[(arg+k*int(op>>3))%len(fuzzCounterNames)]})
		}
		if arg&0x80 != 0 {
			s.Histograms = append(s.Histograms, HistogramSnap{Name: fuzzHistNames[int(op>>3)%len(fuzzHistNames)],
				Buckets: []BucketSnap{{UpperBound: 1}, {UpperBound: 100}, {Overflow: true}}})
		}
	}

	// Fresh values. A histogram with no samples keeps its buckets, all
	// zero, or reports none at all.
	for i := range s.Counters {
		s.Counters[i].Value = uint64(r.next())
	}
	for i := range s.Gauges {
		s.Gauges[i].Value = float64(r.next()) / 4
	}
	for i := range s.Histograms {
		h := &s.Histograms[i]
		v := uint64(r.next())
		h.Count, h.Sum, h.Min, h.Max = v%3, v*5, v, v*2
		if h.Count == 0 {
			h.Sum, h.Min, h.Max = 0, 0, 0
			if v&4 != 0 {
				h.Buckets = nil
			}
		}
		for k := range h.Buckets {
			h.Buckets[k].Count = 0
		}
		if len(h.Buckets) > 0 && h.Count > 0 {
			h.Buckets[int(v)%len(h.Buckets)].Count = h.Count
		}
	}
	s.TraceSeen, s.TraceSampled = uint64(op), uint64(arg&1)
	return s
}

// FuzzFoldMergeMatchesFlat is TestFoldMatchesFlatAggregation over
// schemas that change between Adds: a byte-driven sequence of snapshots
// folded into one Fold must equal the same sequence split over two Folds
// (the first split bytes' snapshots into the first) and merged. That is
// what lets the fleet controller's AggregateTelemetry cut its members
// into runs however it likes: the cut cannot move a counter or a
// histogram. Gauge values here are quarters, so their sums are exact in
// any order.
func FuzzFoldMergeMatchesFlat(f *testing.F) {
	// One schema four times, two snapshots into each fold.
	f.Add([]byte{2, 15, 132, 1, 2, 7, 0, 0, 4, 5, 8, 0, 0, 6, 7, 10, 0, 0, 8, 9, 11})
	// A different name at a counter's position, the first name back, then
	// new names at both a counter's and the histogram's position.
	f.Add([]byte{9, 15, 132, 1, 2, 7, 4, 5, 3, 4, 8, 4, 3, 5, 6, 10, 4, 129, 7, 8, 11})
	// Counters reordered, one dropped, one added.
	f.Add([]byte{2, 15, 4, 1, 2, 3, 4, 1, 1, 5, 6, 7, 8, 2, 2, 9, 10, 11, 3, 6, 12, 13, 14, 15})
	// A bucket bound moved, a bucket dropped, an empty histogram with its
	// buckets and one without, then a gauge.
	f.Add([]byte{3, 15, 128, 1, 2, 3, 7, 5, 0, 1, 1, 1, 8, 5, 48, 1, 1, 1, 10,
		0, 0, 1, 1, 1, 3, 0, 0, 1, 1, 1, 6, 6, 1, 1, 1, 1, 9, 7})
	// One histogram whose single bucket bound differs between the folds.
	f.Add([]byte("\x01C10%"))
	// A histogram with samples that only the second fold has seen.
	f.Add([]byte("\x0200007\xf900001"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		split := int(r.next())
		flat := NewFold()
		parts := [2]*Fold{NewFold(), NewFold()}
		var s Snapshot
		for i := 0; len(r) > 0 && i < 256; i++ {
			s = fuzzSnapshot(&r, s)
			flat.Add(s)
			parts[min(i/max(split, 1), 1)].Add(s)
		}
		parts[0].Merge(parts[1])
		if got, want := parts[0].Snapshot(), flat.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("merged:\n got %+v\nwant %+v", got, want)
		}
	})
}
