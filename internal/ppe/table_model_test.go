package ppe

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"flexsfp/internal/netsim"
)

// refModel is the executable specification the open-addressing store is
// cross-checked against: plain Go maps driven through the same API.
type refModel struct {
	size    int
	entries map[string][]byte
	hits    map[string]uint64
	gen     uint64
}

func newRefModel(size int) *refModel {
	return &refModel{size: size, entries: map[string][]byte{}, hits: map[string]uint64{}}
}

func (m *refModel) add(key, value []byte) bool {
	k := string(key)
	if _, ok := m.entries[k]; !ok && len(m.entries) >= m.size {
		return false
	}
	m.entries[k] = append([]byte(nil), value...)
	m.gen++
	return true
}

func (m *refModel) del(key []byte) bool {
	k := string(key)
	if _, ok := m.entries[k]; !ok {
		return false
	}
	delete(m.entries, k)
	delete(m.hits, k)
	m.gen++
	return true
}

func (m *refModel) lookup(key []byte) ([]byte, bool) {
	v, ok := m.entries[string(key)]
	if ok {
		m.hits[string(key)]++
	}
	return v, ok
}

// TestTableMatchesMapModel drives random Add/Delete/Lookup/Peek sequences
// through the open-addressing store and the map reference model in
// lockstep, verifying values, presence, entry counts, generation
// movement, full-table behavior, and per-entry hit counters via
// Snapshot.
func TestTableMatchesMapModel(t *testing.T) {
	for _, size := range []int{1, 2, 7, 32} {
		size := size
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + size)))
			tab := NewTable(TableSpec{Name: "model", Kind: TableExact, KeyBits: 32, ValueBits: 16, Size: size})
			ref := newRefModel(size)

			key := func() []byte {
				// A keyspace ~3x the capacity exercises full-table inserts,
				// misses, revivals, and tombstone churn.
				k := make([]byte, 4)
				k[3] = byte(rng.Intn(3*size + 2))
				return k
			}
			val := func() []byte {
				v := make([]byte, 2)
				rng.Read(v)
				return v
			}

			for op := 0; op < 4000; op++ {
				switch rng.Intn(4) {
				case 0: // Add
					k, v := key(), val()
					err := tab.Add(k, v)
					okRef := ref.add(k, v)
					if okRef != (err == nil) {
						t.Fatalf("op %d: Add(%x) err=%v, model ok=%v", op, k, err, okRef)
					}
					if err != nil && !errors.Is(err, ErrTableFull) {
						t.Fatalf("op %d: Add(%x) unexpected error class: %v", op, k, err)
					}
				case 1: // Delete
					k := key()
					err := tab.Delete(k)
					okRef := ref.del(k)
					if okRef != (err == nil) {
						t.Fatalf("op %d: Delete(%x) err=%v, model ok=%v", op, k, err, okRef)
					}
					if err != nil && !errors.Is(err, ErrNotFound) {
						t.Fatalf("op %d: Delete(%x) unexpected error class: %v", op, k, err)
					}
				case 2: // Lookup
					k := key()
					got, ok := tab.Lookup(k)
					want, okRef := ref.lookup(k)
					if ok != okRef || (ok && !bytes.Equal(got, want)) {
						t.Fatalf("op %d: Lookup(%x) = %x,%v; model %x,%v", op, k, got, ok, want, okRef)
					}
				case 3: // Peek
					k := key()
					got, ok := tab.Peek(k)
					want, okRef := ref.entries[string(k)]
					if ok != okRef || (ok && !bytes.Equal(got, want)) {
						t.Fatalf("op %d: Peek(%x) = %x,%v; model %x,%v", op, k, got, ok, want, okRef)
					}
				}
				if tab.Len() != len(ref.entries) {
					t.Fatalf("op %d: Len=%d, model %d", op, tab.Len(), len(ref.entries))
				}
				if tab.Generation() != ref.gen {
					t.Fatalf("op %d: Generation=%d, model %d", op, tab.Generation(), ref.gen)
				}
			}

			// Final deep equality, including per-entry hit counters.
			snap := tab.Snapshot()
			if len(snap) != len(ref.entries) {
				t.Fatalf("snapshot has %d entries, model %d", len(snap), len(ref.entries))
			}
			for _, e := range snap {
				want, ok := ref.entries[string(e.Key)]
				if !ok {
					t.Fatalf("snapshot key %x not in model", e.Key)
				}
				if !bytes.Equal(e.Value, want) {
					t.Fatalf("snapshot %x value %x, model %x", e.Key, e.Value, want)
				}
				if e.Hits != ref.hits[string(e.Key)] {
					t.Fatalf("snapshot %x hits %d, model %d", e.Key, e.Hits, ref.hits[string(e.Key)])
				}
			}
		})
	}
}

// TestTableFullAtExactlySpecSize pins the capacity edge: Spec.Size
// distinct keys fit, the next new key fails with ErrTableFull, replacing
// an existing key at capacity still works, and deleting one entry makes
// room for exactly one new key.
func TestTableFullAtExactlySpecSize(t *testing.T) {
	const size = 16
	tab := NewTable(TableSpec{Name: "edge", Kind: TableExact, KeyBits: 16, ValueBits: 8, Size: size})
	k := func(i int) []byte { return []byte{byte(i >> 8), byte(i)} }
	for i := 0; i < size; i++ {
		if err := tab.Add(k(i), []byte{byte(i)}); err != nil {
			t.Fatalf("Add #%d within capacity: %v", i, err)
		}
	}
	if err := tab.Add(k(size), []byte{0xff}); !errors.Is(err, ErrTableFull) {
		t.Fatalf("Add beyond capacity: got %v, want ErrTableFull", err)
	}
	if err := tab.Add(k(3), []byte{0xaa}); err != nil {
		t.Fatalf("replace at capacity: %v", err)
	}
	if v, ok := tab.Lookup(k(3)); !ok || v[0] != 0xaa {
		t.Fatalf("replaced value not visible: %x, %v", v, ok)
	}
	if err := tab.Delete(k(0)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(k(size), []byte{0xff}); err != nil {
		t.Fatalf("Add into freed slot: %v", err)
	}
	if err := tab.Add(k(size+1), []byte{0xff}); !errors.Is(err, ErrTableFull) {
		t.Fatalf("table should be full again: got %v", err)
	}
	if tab.Len() != size {
		t.Fatalf("Len = %d, want %d", tab.Len(), size)
	}
}

// TestTableChurnForcesRebuild drives enough delete/insert churn through a
// small table that tombstones exceed the load limit and the bank is
// rebuilt, then verifies the surviving entries and their hit counters
// carried over.
func TestTableChurnForcesRebuild(t *testing.T) {
	const size = 8
	tab := NewTable(TableSpec{Name: "churn", Kind: TableExact, KeyBits: 16, ValueBits: 8, Size: size})
	k := func(i int) []byte { return []byte{byte(i >> 8), byte(i)} }
	// Keep one pinned entry and give it some hits.
	if err := tab.Add(k(9999), []byte{0x5a}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tab.Lookup(k(9999))
	}
	for round := 0; round < 200; round++ {
		key := k(round)
		if err := tab.Add(key, []byte{byte(round)}); err != nil {
			t.Fatalf("round %d add: %v", round, err)
		}
		if err := tab.Delete(key); err != nil {
			t.Fatalf("round %d delete: %v", round, err)
		}
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after churn, want 1", tab.Len())
	}
	snap := tab.Snapshot()
	if len(snap) != 1 || !bytes.Equal(snap[0].Key, k(9999)) || snap[0].Hits != 3 {
		t.Fatalf("pinned entry lost through rebuilds: %+v", snap)
	}
	if v, ok := tab.Lookup(k(9999)); !ok || v[0] != 0x5a {
		t.Fatalf("pinned value wrong after rebuilds: %x, %v", v, ok)
	}
}

// TestTablePeekImmutableUnderReplace pins the shadow-bank value
// semantics: a slice returned by Peek/Lookup is an immutable published
// image that keeps its contents even after the entry is replaced or
// deleted.
func TestTablePeekImmutableUnderReplace(t *testing.T) {
	tab := NewTable(TableSpec{Name: "immutable", Kind: TableExact, KeyBits: 8, ValueBits: 32, Size: 4})
	key := []byte{7}
	if err := tab.Add(key, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	old, ok := tab.Peek(key)
	if !ok {
		t.Fatal("Peek missed")
	}
	if err := tab.Add(key, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, []byte{1, 2, 3, 4}) {
		t.Fatalf("previously returned value mutated by replace: %x", old)
	}
	if err := tab.Delete(key); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, []byte{1, 2, 3, 4}) {
		t.Fatalf("previously returned value mutated by delete: %x", old)
	}
}

// TestTableConcurrentReadersAndWriter is the race test for the lock-free
// datapath: one control-plane writer churns Add/Delete while reader
// goroutines hammer Lookup and Peek. Run under -race this validates the
// publication protocol; the assertions check reads are always coherent
// (a hit returns a complete value image of the right length).
func TestTableConcurrentReadersAndWriter(t *testing.T) {
	const size = 64
	tab := NewTable(TableSpec{Name: "race", Kind: TableExact, KeyBits: 16, ValueBits: 32, Size: size})
	k := func(i int) []byte { return []byte{byte(i >> 8), byte(i)} }
	v := func(i int) []byte { return []byte{byte(i), byte(i), byte(i), byte(i)} }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := k(rng.Intn(size))
				if val, ok := tab.Lookup(key); ok {
					if len(val) != 4 || val[0] != val[3] {
						t.Errorf("torn read: %x", val)
						return
					}
				}
				if val, ok := tab.Peek(key); ok && (len(val) != 4 || val[0] != val[3]) {
					t.Errorf("torn peek: %x", val)
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < 20000; i++ {
		idx := i % size
		if err := tab.Add(k(idx), v(i)); err != nil {
			t.Errorf("add: %v", err)
			break
		}
		if i%3 == 0 {
			_ = tab.Delete(k(idx))
		}
	}
	close(stop)
	wg.Wait()
}

// TestTernaryConcurrentLookups races RLock readers against a writer. The
// writer rebuilds the table with Clear then Add (there is no per-entry
// delete), so a reader may legitimately miss in between; a hit must
// always return the matching entry's action data, never a torn one.
func TestTernaryConcurrentLookups(t *testing.T) {
	tt := NewTernaryTable(TableSpec{Name: "acl", Kind: TableTernary, KeyBits: 8, Size: 16})
	if err := tt.Add(TernaryEntry{Value: []byte{0x10}, Mask: []byte{0xf0}, Priority: 1, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	const perReader = 5000
	var (
		wg  sync.WaitGroup
		bad atomic.Uint64
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				if data, ok := tt.Lookup([]byte{0x15}); ok && !bytes.Equal(data, []byte{1}) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = tt.Add(TernaryEntry{Value: []byte{0x20}, Mask: []byte{0xff}, Priority: 0, Data: []byte{2}})
			tt.Clear()
			_ = tt.Add(TernaryEntry{Value: []byte{0x10}, Mask: []byte{0xf0}, Priority: 1, Data: []byte{1}})
		}
	}()
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d hits returned the wrong action data", n)
	}
	// The writer's last act was to re-add the entry.
	if _, ok := tt.Lookup([]byte{0x15}); !ok {
		t.Fatal("lookup missed after the writer finished")
	}
}

// TestTableLookupZeroAlloc pins the datapath allocation contract: hits
// and misses both run allocation-free.
func TestTableLookupZeroAlloc(t *testing.T) {
	tab := NewTable(TableSpec{Name: "alloc", Kind: TableExact, KeyBits: 32, ValueBits: 32, Size: 128})
	key := []byte{1, 2, 3, 4}
	if err := tab.Add(key, []byte{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	miss := []byte{9, 9, 9, 9}
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := tab.Lookup(key); !ok {
			t.Fatal("hit expected")
		}
		if _, ok := tab.Lookup(miss); ok {
			t.Fatal("miss expected")
		}
	}); n != 0 {
		t.Fatalf("Table.Lookup allocates %v per run, want 0", n)
	}
}

// TestTernaryLookupZeroAlloc pins the TCAM read path too.
func TestTernaryLookupZeroAlloc(t *testing.T) {
	tt := NewTernaryTable(TableSpec{Name: "acl", Kind: TableTernary, KeyBits: 8, Size: 4})
	if err := tt.Add(TernaryEntry{Value: []byte{0x10}, Mask: []byte{0xf0}, Priority: 1, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	key := []byte{0x15}
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := tt.Lookup(key); !ok {
			t.Fatal("hit expected")
		}
	}); n != 0 {
		t.Fatalf("TernaryTable.Lookup allocates %v per run, want 0", n)
	}
}

// TestEngineSubmitZeroAlloc asserts the whole per-frame path — submit,
// cycle accounting, pooled completion, verdict delivery — settles to
// zero allocations once the pools are warm.
func TestEngineSubmitZeroAlloc(t *testing.T) {
	sim := netsim.New(1)
	e := NewEngine(sim, clock156, 64, nil)
	if err := e.SetProgram(passProgram()); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 64)
	// Warm the completion pool and the simulator free list.
	for i := 0; i < 8; i++ {
		e.Submit(frame, DirEdgeToOptical)
		sim.Run()
	}
	if n := testing.AllocsPerRun(200, func() {
		if !e.Submit(frame, DirEdgeToOptical) {
			t.Fatal("submit refused")
		}
		sim.Run()
	}); n != 0 {
		t.Fatalf("Engine.Submit allocates %v per run, want 0", n)
	}
}

// TestEngineSubmitQueuedZeroAlloc covers the queued path that
// TestEngineSubmitZeroAlloc never reaches: bursts that fill a 64-slot
// queue and overflow it, then refill it over partly passed slot marks, so
// Submit takes marks, drains them and refuses frames — all at zero
// allocations once the mark FIFO has grown to the queue's depth.
func TestEngineSubmitQueuedZeroAlloc(t *testing.T) {
	sim := netsim.New(1)
	e := NewEngine(sim, clock156, 64, nil)
	if err := e.SetProgram(passProgram()); err != nil {
		t.Fatal(err)
	}
	e.QueueLimit = 64
	frame := make([]byte, 64)
	burst := func() {
		for i := 0; i < 80; i++ {
			e.Submit(frame, DirEdgeToOptical)
		}
		sim.RunFor(netsim.Microsecond)
		for i := 0; i < 40; i++ {
			e.Submit(frame, DirEdgeToOptical)
		}
		sim.Run()
	}
	for i := 0; i < 4; i++ {
		burst()
	}
	if e.Stats().QueueDrop == 0 {
		t.Fatal("bursts never overflowed the queue")
	}
	if n := testing.AllocsPerRun(50, burst); n != 0 {
		t.Fatalf("queued Engine.Submit bursts allocate %v per run, want 0", n)
	}
}

// BenchmarkTableLookupPPE measures the bank read path in isolation with a
// realistic NAT-shaped table.
func BenchmarkTableLookupPPE(b *testing.B) {
	tab := NewTable(TableSpec{Name: "nat", Kind: TableExact, KeyBits: 32, ValueBits: 32, Size: 32768})
	keys := make([][]byte, 1024)
	for i := range keys {
		k := []byte{10, 0, byte(i >> 8), byte(i)}
		keys[i] = k
		if err := tab.Add(k, []byte{192, 0, byte(i >> 8), byte(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.Lookup(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}
