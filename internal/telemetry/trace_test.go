package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4, 64)
	var sampled int
	for i := 0; i < 100; i++ {
		if _, ok := tr.Sample(); ok {
			sampled++
		}
	}
	if sampled != 25 {
		t.Fatalf("1-in-4 over 100 frames sampled %d", sampled)
	}
	if tr.Seen() != 100 || tr.Sampled() != 25 {
		t.Fatalf("seen/sampled = %d/%d", tr.Seen(), tr.Sampled())
	}
}

func TestTracerSampleEveryOne(t *testing.T) {
	tr := NewTracer(0, 0) // clamps to every=1, min ring
	for i := 0; i < 10; i++ {
		if _, ok := tr.Sample(); !ok {
			t.Fatal("every=1 must sample every frame")
		}
	}
	if len(tr.ring) < 16 {
		t.Fatalf("ring cap = %d", len(tr.ring))
	}
}

func TestTracerHopOrderAndFields(t *testing.T) {
	tr := NewTracer(1, 64)
	id1, _ := tr.Sample()
	id2, _ := tr.Sample()
	tr.Hop(id1, StageGen, 100, 64, 0)
	tr.Hop(id1, StageSubmit, 150, 64, 1)
	tr.Hop(id2, StageGen, 200, 1518, 0)
	tr.Hop(id1, StageVerdict, 300, 64, 2)
	tr.Hop(0, StageGen, 999, 1, 0) // unsampled: dropped

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	want := []struct {
		id    uint64
		stage Stage
		time  uint64
		ln    uint32
		aux   uint8
	}{
		{id1, StageGen, 100, 64, 0},
		{id1, StageSubmit, 150, 64, 1},
		{id2, StageGen, 200, 1518, 0},
		{id1, StageVerdict, 300, 64, 2},
	}
	for i, w := range want {
		e := evs[i]
		if e.ID != w.id || e.Stage != w.stage || e.TimeNs != w.time || e.Len != w.ln || e.Aux != w.aux {
			t.Fatalf("event %d = %+v, want %+v", i, e, w)
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(1, 16)
	for i := 0; i < 100; i++ {
		tr.Hop(uint64(i+1), StageRx, uint64(i), 64, 0)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("wrapped ring holds %d events, want 16", len(evs))
	}
	// Oldest first: the surviving events are frames 85..100.
	if evs[0].ID != 85 || evs[15].ID != 100 {
		t.Fatalf("wrap kept IDs %d..%d, want 85..100", evs[0].ID, evs[15].ID)
	}
}

func TestTracerCurrent(t *testing.T) {
	tr := NewTracer(1, 16)
	if tr.Current() != 0 {
		t.Fatal("fresh current != 0")
	}
	tr.SetCurrent(7)
	if tr.Current() != 7 {
		t.Fatal("current not set")
	}
	tr.SetCurrent(0)
	if tr.Current() != 0 {
		t.Fatal("current not cleared")
	}
}

func TestStageStrings(t *testing.T) {
	for s := StageGen; s <= StageTx; s++ {
		if name := s.String(); name == "" || name == fmt.Sprintf("stage(%d)", uint8(s)) {
			t.Fatalf("stage %d has no proper name", s)
		}
	}
	if StageGen.String() != "gen" || StageVerdict.String() != "verdict" {
		t.Fatalf("stage names wrong: %s %s", StageGen, StageVerdict)
	}
	if Stage(99).String() != "stage(99)" {
		t.Fatalf("fallback = %s", Stage(99))
	}
}

// TestTracerConcurrent is the race-detector regression: recorders and
// dumpers hammer the ring at once; the dump must only ever surface fully
// published, untorn events.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(1, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				id, ok := tr.Sample()
				if ok {
					// Encode id into every field so a torn read is detectable.
					tr.Hop(id, StageRx, id*3, int(uint32(id)), uint8(id))
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, e := range tr.Events() {
					if e.TimeNs != e.ID*3 || e.Len != uint32(e.ID) || e.Aux != uint8(e.ID) {
						t.Errorf("torn event surfaced: %+v", e)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
