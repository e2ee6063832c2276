package ppe

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

func natSpec() TableSpec {
	return TableSpec{Name: "nat", Kind: TableExact, KeyBits: 32, ValueBits: 32, Size: 32768}
}

func TestTableAddLookup(t *testing.T) {
	tab := NewTable(natSpec())
	key := []byte{10, 0, 0, 1}
	val := []byte{192, 0, 2, 1}
	if err := tab.Add(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok := tab.Lookup(key)
	if !ok || !bytes.Equal(got, val) {
		t.Errorf("Lookup = %x, %v", got, ok)
	}
	if _, ok := tab.Lookup([]byte{10, 0, 0, 2}); ok {
		t.Error("phantom entry")
	}
	lk, ms := tab.Stats()
	if lk != 2 || ms != 1 {
		t.Errorf("stats = %d/%d, want 2/1", lk, ms)
	}
}

func TestTableKeySizeEnforced(t *testing.T) {
	tab := NewTable(natSpec())
	if err := tab.Add([]byte{1, 2, 3}, []byte{1, 2, 3, 4}); !errors.Is(err, ErrKeySize) {
		t.Errorf("err = %v, want ErrKeySize", err)
	}
	if err := tab.Add([]byte{1, 2, 3, 4}, []byte{1}); !errors.Is(err, ErrValueSize) {
		t.Errorf("err = %v, want ErrValueSize", err)
	}
}

func TestTableCapacity(t *testing.T) {
	spec := natSpec()
	spec.Size = 2
	tab := NewTable(spec)
	if err := tab.Add([]byte{0, 0, 0, 1}, []byte{0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add([]byte{0, 0, 0, 2}, []byte{0, 0, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add([]byte{0, 0, 0, 3}, []byte{0, 0, 0, 3}); !errors.Is(err, ErrTableFull) {
		t.Errorf("err = %v, want ErrTableFull", err)
	}
	// Replacing an existing key is allowed at capacity.
	if err := tab.Add([]byte{0, 0, 0, 1}, []byte{9, 9, 9, 9}); err != nil {
		t.Errorf("replace at capacity: %v", err)
	}
}

func TestTableDeleteAndGeneration(t *testing.T) {
	tab := NewTable(natSpec())
	key := []byte{1, 1, 1, 1}
	if err := tab.Add(key, []byte{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	g1 := tab.Generation()
	if err := tab.Delete(key); err != nil {
		t.Fatal(err)
	}
	if tab.Generation() <= g1 {
		t.Error("generation not bumped by Delete")
	}
	if err := tab.Delete(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if tab.Len() != 0 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestTableSnapshotSortedWithHits(t *testing.T) {
	tab := NewTable(natSpec())
	for _, b := range []byte{3, 1, 2} {
		if err := tab.Add([]byte{0, 0, 0, b}, []byte{b, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	tab.Lookup([]byte{0, 0, 0, 2})
	tab.Lookup([]byte{0, 0, 0, 2})
	snap := tab.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %d rows", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if bytes.Compare(snap[i-1].Key, snap[i].Key) >= 0 {
			t.Error("snapshot not sorted")
		}
	}
	if snap[1].Hits != 2 {
		t.Errorf("hits = %d, want 2", snap[1].Hits)
	}
}

func TestTablePeekDoesNotCount(t *testing.T) {
	tab := NewTable(natSpec())
	key := []byte{1, 2, 3, 4}
	if err := tab.Add(key, []byte{4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	tab.Peek(key)
	lk, _ := tab.Stats()
	if lk != 0 {
		t.Error("Peek counted as lookup")
	}
}

func TestTernaryPriorityOrder(t *testing.T) {
	spec := TableSpec{Name: "acl", Kind: TableTernary, KeyBits: 32, ValueBits: 8, Size: 16}
	tab := NewTernaryTable(spec)
	// Low-priority default: match everything → action 0 (permit).
	if err := tab.Add(TernaryEntry{
		Value: []byte{0, 0, 0, 0}, Mask: []byte{0, 0, 0, 0}, Priority: 0, Data: []byte{0},
	}); err != nil {
		t.Fatal(err)
	}
	// High-priority: 10.0.0.0/8 → action 1 (deny).
	if err := tab.Add(TernaryEntry{
		Value: []byte{10, 0, 0, 0}, Mask: []byte{255, 0, 0, 0}, Priority: 100, Data: []byte{1},
	}); err != nil {
		t.Fatal(err)
	}
	if d, ok := tab.Lookup([]byte{10, 9, 8, 7}); !ok || d[0] != 1 {
		t.Errorf("10/8 lookup = %v, %v", d, ok)
	}
	if d, ok := tab.Lookup([]byte{11, 9, 8, 7}); !ok || d[0] != 0 {
		t.Errorf("default lookup = %v, %v", d, ok)
	}
}

func TestTernaryInsertionOrderAmongEqualPriorities(t *testing.T) {
	spec := TableSpec{Name: "t", Kind: TableTernary, KeyBits: 8, ValueBits: 8, Size: 4}
	tab := NewTernaryTable(spec)
	_ = tab.Add(TernaryEntry{Value: []byte{0}, Mask: []byte{0}, Priority: 5, Data: []byte{1}})
	_ = tab.Add(TernaryEntry{Value: []byte{0}, Mask: []byte{0}, Priority: 5, Data: []byte{2}})
	if d, _ := tab.Lookup([]byte{7}); d[0] != 1 {
		t.Errorf("first-inserted should win ties, got %d", d[0])
	}
}

func TestTernaryCapacityAndClear(t *testing.T) {
	spec := TableSpec{Name: "t", Kind: TableTernary, KeyBits: 8, ValueBits: 8, Size: 1}
	tab := NewTernaryTable(spec)
	_ = tab.Add(TernaryEntry{Value: []byte{1}, Mask: []byte{255}, Priority: 1, Data: []byte{1}})
	if err := tab.Add(TernaryEntry{Value: []byte{2}, Mask: []byte{255}, Priority: 1, Data: []byte{2}}); !errors.Is(err, ErrTableFull) {
		t.Errorf("err = %v, want ErrTableFull", err)
	}
	tab.Clear()
	if len(tab.entries) != 0 {
		t.Error("Clear left entries")
	}
}

func TestTernaryMaskSizeEnforced(t *testing.T) {
	spec := TableSpec{Name: "t", Kind: TableTernary, KeyBits: 32, ValueBits: 8, Size: 4}
	tab := NewTernaryTable(spec)
	err := tab.Add(TernaryEntry{Value: []byte{1, 2, 3, 4}, Mask: []byte{255}, Priority: 1})
	if !errors.Is(err, ErrKeySize) {
		t.Errorf("err = %v, want ErrKeySize", err)
	}
}

func TestCounterBank(t *testing.T) {
	c := NewCounterBank("ports", 4)
	c.Inc(1, 100)
	c.Inc(1, 200)
	c.Inc(3, 64)
	p, b := c.Read(1)
	if p != 2 || b != 300 {
		t.Errorf("counter 1 = %d/%d", p, b)
	}
	c.Inc(99, 1) // out of range: ignored
	if p, _ := c.Read(99); p != 0 {
		t.Error("out-of-range read nonzero")
	}
}

func TestRegister(t *testing.T) {
	r := NewRegister("seq")
	r.Store(41)
	if r.Add(1) != 42 {
		t.Error("Add")
	}
	if r.Load() != 42 {
		t.Error("Load")
	}
}

func TestMeterConformance(t *testing.T) {
	b := NewMeterBank("police", 2)
	// 8 kbit/s with 1 kbit burst: one 125-byte frame per second steady
	// state, bucket holds one frame.
	if err := b.Configure(0, 8000, 1000); err != nil {
		t.Fatal(err)
	}
	if !b.Conform(0, 0, 125) {
		t.Error("first frame within burst should conform")
	}
	if b.Conform(0, 1000, 125) { // 1 µs later: no refill to speak of
		t.Error("back-to-back frame should exceed")
	}
	if !b.Conform(0, 1_000_000_000, 125) { // 1 s later: bucket refilled
		t.Error("frame after refill should conform")
	}
	// Unconfigured meter passes everything.
	if !b.Conform(1, 0, 100000) {
		t.Error("unconfigured meter rejected traffic")
	}
	if err := b.Configure(5, 1, 1); err == nil {
		t.Error("out-of-range Configure accepted")
	}
}

func TestMeterLongRunRate(t *testing.T) {
	b := NewMeterBank("police", 1)
	const rate = 1_000_000 // 1 Mb/s
	if err := b.Configure(0, rate, 10_000); err != nil {
		t.Fatal(err)
	}
	// Offer 10 Mb/s for one simulated second; ~10% should conform.
	frame := 1250 // 10 kbit
	conformed := 0
	for i := 0; i < 1000; i++ {
		if b.Conform(0, uint64(i)*1_000_000, frame) {
			conformed++
		}
	}
	if conformed < 80 || conformed > 120 {
		t.Errorf("conformed %d of 1000 frames, want ≈100", conformed)
	}
}

func TestStateRegistry(t *testing.T) {
	s := NewState()
	s.AddTable(natSpec())
	s.AddTernary(TableSpec{Name: "acl", Kind: TableTernary, KeyBits: 8, ValueBits: 8, Size: 4})
	s.AddCounters("stats", 8)
	s.AddMeters("police", 2)
	s.AddRegister("seq")
	if _, ok := s.Table("nat"); !ok {
		t.Error("table lost")
	}
	if _, ok := s.Ternary("acl"); !ok {
		t.Error("ternary lost")
	}
	if _, ok := s.Counters("stats"); !ok {
		t.Error("counters lost")
	}
	if _, ok := s.Meters("police"); !ok {
		t.Error("meters lost")
	}
	if _, ok := s.Register("seq"); !ok {
		t.Error("register lost")
	}
	if _, ok := s.Table("missing"); ok {
		t.Error("phantom table")
	}
	if got := s.TableNames(); len(got) != 1 || got[0] != "nat" {
		t.Errorf("TableNames = %v", got)
	}
}

// Property: a table never returns a value it was not given, and always
// returns the last value written for a key.
func TestTableLastWriteWinsProperty(t *testing.T) {
	f := func(keys [][4]byte, vals [][4]byte) bool {
		if len(vals) == 0 {
			return true
		}
		tab := NewTable(natSpec())
		want := map[[4]byte][4]byte{}
		for i, k := range keys {
			v := vals[i%len(vals)]
			if err := tab.Add(k[:], v[:]); err != nil {
				return false
			}
			want[k] = v
		}
		for k, v := range want {
			got, ok := tab.Lookup(k[:])
			if !ok || !bytes.Equal(got, v[:]) {
				return false
			}
		}
		return tab.Len() == len(want)
	}
	if err := quick.Check(f, &quick.Config{Rand: runner.NewRand(15)}); err != nil {
		t.Error(err)
	}
}
