package netsim

// eventHeap is an inlined 4-ary index-min heap ordered by (at, seq).
//
// It replaces the earlier container/heap implementation on the scheduler
// hot path: container/heap moves elements through `any`, which boxes the
// *event on every Push/Pop and dispatches Less/Swap through an interface
// table. The inlined heap keeps everything monomorphic — push and pop are
// straight slice code the compiler can inline into schedule/Step.
//
// A 4-ary layout (children of i at 4i+1..4i+4) halves the tree depth of a
// binary heap: sift-up does half the comparisons, and sift-down's extra
// per-level comparisons stay inside one cache line of []*event, which is
// the right trade for the deep pending queues the traffic sweeps build.
// Events cannot be canceled, so the heap never needs arbitrary-index
// removal and events carry no heap index.
type eventHeap []*event

// eventLess orders by timestamp, then by schedule sequence so same-time
// events fire FIFO.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e, restoring the heap by sifting up.
func (h *eventHeap) push(e *event) {
	hh := append(*h, e)
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(hh[i], hh[p]) {
			break
		}
		hh[i], hh[p] = hh[p], hh[i]
		i = p
	}
	*h = hh
}

// dropTop removes the minimum event, which the caller has read at h[0],
// by moving the last leaf into the root; the caller must then restore the
// heap with fixTop. The heap must be non-empty. (Split from fixTop so it
// inlines and a pop costs one call.)
func (h *eventHeap) dropTop() {
	hh := *h
	n := len(hh) - 1
	hh[0] = hh[n]
	hh[n] = nil // release the reference for GC
	*h = hh[:n]
}

// fixTop restores the heap after the root's key has grown in place (a
// Queue's event taking its next entry's place, or dropTop's moved leaf):
// one sift-down, where a pop and a push would take two.
func (hh eventHeap) fixTop() {
	n := len(hh)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Min of the (up to four) children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(hh[j], hh[m]) {
				m = j
			}
		}
		if !eventLess(hh[m], hh[i]) {
			break
		}
		hh[i], hh[m] = hh[m], hh[i]
		i = m
	}
}
