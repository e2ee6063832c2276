package ppe

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Table errors.
var (
	ErrKeySize   = errors.New("ppe: key size does not match table spec")
	ErrValueSize = errors.New("ppe: value size does not match table spec")
	ErrTableFull = errors.New("ppe: table full")
	ErrNotFound  = errors.New("ppe: entry not found")
)

// Slot states. A slot moves empty→live on insert and live→dead on delete;
// dead slots (tombstones) keep their key so probe chains stay intact and
// the same key can be revived in place. Tombstones are shed by a bank
// rebuild when they would crowd the probe chains.
const (
	slotEmpty uint32 = iota
	slotLive
	slotDead
)

// tableBank is one published generation of the table: a fixed-geometry,
// power-of-two-bucketed open-addressing store with flat backing arrays,
// sized for the hardware shape (fixed key/value widths from the spec).
//
// Readers never block and never allocate. The publication protocol:
//
//   - Key bytes are write-once per slot and are published by the
//     release-store of state[s] = slotLive; readers only touch keys[s]
//     after an acquire-load of state[s] observes live/dead.
//   - Values live in an append-only arena. A published region is never
//     rewritten; updating a value bump-allocates a fresh region and
//     atomically swaps the slot's 1-based arena offset. Readers therefore
//     always see a complete, immutable value image.
//   - Structural growth (tombstone shedding, arena exhaustion) builds a
//     fresh bank and publishes it with one atomic pointer swap — the
//     shadowed table banks of the real hardware (§4.2).
type tableBank struct {
	mask      uint64
	keyLen    int
	valLen    int
	loadLimit int // max live+dead before a rebuild sheds tombstones

	state  []atomic.Uint32 // slotEmpty / slotLive / slotDead
	keys   []byte          // slots × keyLen, write-once per slot
	valOff []atomic.Uint64 // 1-based offset of the slot's value region
	hits   []atomic.Uint64 // per-entry datapath hit counters

	arena []byte // append-only value storage; published regions immutable
	used  int    // writer-only bump pointer
	live  int    // writer-only live-entry count
	dead  int    // writer-only tombstone count
}

func newTableBank(slots, keyLen, valLen, size int) *tableBank {
	b := &tableBank{
		mask:      uint64(slots - 1),
		keyLen:    keyLen,
		valLen:    valLen,
		loadLimit: slots - slots/4,
		state:     make([]atomic.Uint32, slots),
		keys:      make([]byte, slots*keyLen),
		valOff:    make([]atomic.Uint64, slots),
		hits:      make([]atomic.Uint64, slots),
	}
	if valLen > 0 {
		// Room for every entry plus replacement slack before the next
		// rebuild has to recompact the arena.
		b.arena = make([]byte, valLen*(2*size+8))
	}
	return b
}

func (b *tableBank) keyAt(s uint64) []byte {
	off := int(s) * b.keyLen
	return b.keys[off : off+b.keyLen : off+b.keyLen]
}

// valueAt returns the immutable value image of a slot whose offset has
// been published.
func (b *tableBank) valueAt(s uint64) []byte {
	if b.valLen == 0 {
		return nil
	}
	off := b.valOff[s].Load() - 1
	return b.arena[off : off+uint64(b.valLen) : off+uint64(b.valLen)]
}

// appendValue bump-allocates a value region and returns its 1-based
// offset; ok=false means the arena is exhausted and the bank must be
// rebuilt.
func (b *tableBank) appendValue(v []byte) (uint64, bool) {
	if b.valLen == 0 {
		return 1, true
	}
	if b.used+b.valLen > len(b.arena) {
		return 0, false
	}
	off := b.used
	copy(b.arena[off:off+b.valLen], v)
	b.used += b.valLen
	return uint64(off) + 1, true
}

// Table is an exact-match table with per-entry hit counters, shaped like
// the hardware it models: fixed key/value geometry, power-of-two bucket
// count, flat backing arrays. Updates are atomic with respect to lookups
// (§4.2: "APIs to read/write tables and counters with atomic, runtime
// updates at line rate"): control-plane Add/Delete publish under a writer
// mutex while datapath Lookup runs lock-free against the current bank and
// never blocks, mirroring the shadowed table banks of the real design.
type Table struct {
	Spec TableSpec

	keyLen int
	valLen int
	seed   uint64

	mu   sync.Mutex // serializes writers (Add/Delete/rebuild)
	bank atomic.Pointer[tableBank]

	count   atomic.Int64
	gen     atomic.Uint64
	lookups atomic.Uint64
	misses  atomic.Uint64
}

// NewTable builds an empty table from its spec.
func NewTable(spec TableSpec) *Table {
	keyLen := (spec.KeyBits + 7) / 8
	valLen := (spec.ValueBits + 7) / 8
	slots := 1
	for slots < 2*spec.Size {
		slots <<= 1
	}
	t := &Table{
		Spec:   spec,
		keyLen: keyLen,
		valLen: valLen,
		seed:   tableSeed(spec.Name),
	}
	t.bank.Store(newTableBank(slots, keyLen, valLen, spec.Size))
	return t
}

// tableSeed derives a deterministic per-table hash seed from the table
// name, so probe sequences are reproducible across runs while distinct
// tables hash differently.
func tableSeed(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	return h | 1
}

// hashKey is a seeded FNV-1a with a 64-bit avalanche finalizer; the low
// bits index the power-of-two bucket array.
func (t *Table) hashKey(key []byte) uint64 {
	h := t.seed
	for _, b := range key {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// KeyBytes returns the exact key length in bytes.
func (t *Table) checkSizes(key, value []byte) error {
	if len(key) != t.keyLen {
		return fmt.Errorf("%w: got %d bytes, want %d", ErrKeySize, len(key), t.keyLen)
	}
	if value != nil && len(value) != t.valLen {
		return fmt.Errorf("%w: got %d bytes, want %d", ErrValueSize, len(value), t.valLen)
	}
	return nil
}

func (t *Table) fullErr() error {
	return fmt.Errorf("%w: %q at %d entries", ErrTableFull, t.Spec.Name, t.Spec.Size)
}

// Add inserts or replaces an entry. Replacing an existing key is allowed
// even at capacity; a new key beyond Spec.Size fails with ErrTableFull.
func (t *Table) Add(key, value []byte) error {
	if err := t.checkSizes(key, value); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for attempt := 0; ; attempt++ {
		b := t.bank.Load()
		done, err := t.addInBank(b, key, value)
		if done {
			return err
		}
		if attempt > 0 {
			panic("ppe: table insert failed in a freshly rebuilt bank")
		}
		t.rebuildLocked(b)
	}
}

// addInBank attempts the insert against one bank. done=false means the
// bank ran out of arena or probe-chain room and must be rebuilt first.
func (t *Table) addInBank(b *tableBank, key, value []byte) (bool, error) {
	h := t.hashKey(key)
	slots := b.mask + 1
	firstEmpty := -1
	for i := uint64(0); i < slots; i++ {
		s := (h + i) & b.mask
		st := b.state[s].Load()
		if st == slotEmpty {
			firstEmpty = int(s)
			break
		}
		if !bytes.Equal(key, b.keyAt(s)) {
			continue
		}
		if st == slotLive {
			// Replace: publish a fresh immutable value region.
			off, ok := b.appendValue(value)
			if !ok {
				return false, nil
			}
			b.valOff[s].Store(off)
			t.gen.Add(1)
			return true, nil
		}
		// Tombstone holding the same key: revive in place. A revival is a
		// fresh insert for capacity accounting and hit counting.
		if b.live >= t.Spec.Size {
			return true, t.fullErr()
		}
		off, ok := b.appendValue(value)
		if !ok {
			return false, nil
		}
		b.hits[s].Store(0)
		b.valOff[s].Store(off)
		b.state[s].Store(slotLive)
		b.live++
		b.dead--
		t.count.Add(1)
		t.gen.Add(1)
		return true, nil
	}
	if b.live >= t.Spec.Size {
		return true, t.fullErr()
	}
	if firstEmpty < 0 || b.live+b.dead >= b.loadLimit {
		return false, nil // shed tombstones, then retry
	}
	off, ok := b.appendValue(value)
	if !ok {
		return false, nil
	}
	s := uint64(firstEmpty)
	// Write-once key bytes; the slotLive release-store below publishes
	// them to lock-free readers.
	copy(b.keyAt(s), key)
	b.valOff[s].Store(off)
	b.state[s].Store(slotLive)
	b.live++
	t.count.Add(1)
	t.gen.Add(1)
	return true, nil
}

// rebuildLocked builds a fresh bank containing only live entries (their
// hit counts carried over) and publishes it with one pointer swap.
// Readers racing the swap finish against the old bank, which stays
// valid and immutable forever.
func (t *Table) rebuildLocked(old *tableBank) {
	nb := newTableBank(int(old.mask+1), t.keyLen, t.valLen, t.Spec.Size)
	for s := uint64(0); s <= old.mask; s++ {
		if old.state[s].Load() != slotLive {
			continue
		}
		key := old.keyAt(s)
		off, ok := nb.appendValue(old.valueAt(s))
		if !ok {
			panic("ppe: rebuild arena undersized")
		}
		h := t.hashKey(key)
		for i := uint64(0); ; i++ {
			ns := (h + i) & nb.mask
			if nb.state[ns].Load() != slotEmpty {
				continue
			}
			copy(nb.keyAt(ns), key)
			nb.valOff[ns].Store(off)
			nb.hits[ns].Store(old.hits[s].Load())
			nb.state[ns].Store(slotLive)
			break
		}
	}
	nb.live = old.live
	t.bank.Store(nb)
}

// Delete removes an entry, leaving a tombstone in its probe slot.
func (t *Table) Delete(key []byte) error {
	if err := t.checkSizes(key, nil); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bank.Load()
	h := t.hashKey(key)
	slots := b.mask + 1
	for i := uint64(0); i < slots; i++ {
		s := (h + i) & b.mask
		st := b.state[s].Load()
		if st == slotEmpty {
			break
		}
		if st == slotLive && bytes.Equal(key, b.keyAt(s)) {
			b.state[s].Store(slotDead)
			b.live--
			b.dead++
			t.count.Add(-1)
			t.gen.Add(1)
			return nil
		}
	}
	return fmt.Errorf("%w: %x", ErrNotFound, key)
}

// Lookup returns the value for key, counting the hit or miss. It is the
// datapath read: lock-free, allocation-free, and never blocked by
// control-plane updates. The returned slice is an immutable published
// value image and must not be modified.
func (t *Table) Lookup(key []byte) ([]byte, bool) {
	t.lookups.Add(1)
	b := t.bank.Load()
	h := t.hashKey(key)
	slots := b.mask + 1
	for i := uint64(0); i < slots; i++ {
		s := (h + i) & b.mask
		st := b.state[s].Load()
		if st == slotEmpty {
			break
		}
		if st == slotLive && bytes.Equal(key, b.keyAt(s)) {
			b.hits[s].Add(1)
			return b.valueAt(s), true
		}
	}
	t.misses.Add(1)
	return nil, false
}

// Peek returns the value without touching counters (control-plane reads).
// Like Lookup it is lock-free and returns an immutable value image that
// stays valid even if the entry is concurrently replaced or deleted.
func (t *Table) Peek(key []byte) ([]byte, bool) {
	if len(key) != t.keyLen {
		return nil, false
	}
	b := t.bank.Load()
	h := t.hashKey(key)
	slots := b.mask + 1
	for i := uint64(0); i < slots; i++ {
		s := (h + i) & b.mask
		st := b.state[s].Load()
		if st == slotEmpty {
			break
		}
		if st == slotLive && bytes.Equal(key, b.keyAt(s)) {
			return b.valueAt(s), true
		}
	}
	return nil, false
}

// Len returns the current entry count.
func (t *Table) Len() int { return int(t.count.Load()) }

// Generation returns the update generation (incremented by Add/Delete).
func (t *Table) Generation() uint64 { return t.gen.Load() }

// Stats returns lookup/miss totals.
func (t *Table) Stats() (lookups, misses uint64) {
	return t.lookups.Load(), t.misses.Load()
}

// TableEntry is a snapshot row.
type TableEntry struct {
	Key   []byte
	Value []byte
	Hits  uint64
}

// Snapshot returns all entries sorted by key (control-plane table dump).
func (t *Table) Snapshot() []TableEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bank.Load()
	out := make([]TableEntry, 0, b.live)
	for s := uint64(0); s <= b.mask; s++ {
		if b.state[s].Load() != slotLive {
			continue
		}
		out = append(out, TableEntry{
			Key:   append([]byte(nil), b.keyAt(s)...),
			Value: append([]byte(nil), b.valueAt(s)...),
			Hits:  b.hits[s].Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	return out
}

// TernaryEntry is one masked entry: key matches when
// candidate&Mask == Value&Mask. Higher Priority wins.
type TernaryEntry struct {
	Value    []byte
	Mask     []byte
	Priority int
	Data     []byte // action data
}

// ternaryEntry is the internal immutable form: nothing mutates it after
// insertion, so concurrent readers under RLock share it freely.
type ternaryEntry struct {
	value    []byte
	mask     []byte
	priority int
	data     []byte
}

// TernaryTable is a priority-ordered masked table (register-based TCAM).
// Lookups take only the read lock — entries are immutable — so
// concurrent fleet-sim shards never serialize on ACL matches; Add/Clear
// take the write lock.
type TernaryTable struct {
	Spec TableSpec

	mu      sync.RWMutex
	entries []*ternaryEntry
	gen     uint64
}

// NewTernaryTable builds an empty ternary table.
func NewTernaryTable(spec TableSpec) *TernaryTable {
	return &TernaryTable{Spec: spec}
}

// KeyBytes returns the key length in bytes.
func (t *TernaryTable) KeyBytes() int { return (t.Spec.KeyBits + 7) / 8 }

// Add inserts an entry. Entries are kept sorted by descending priority;
// equal priorities keep insertion order.
func (t *TernaryTable) Add(e TernaryEntry) error {
	if len(e.Value) != t.KeyBytes() || len(e.Mask) != t.KeyBytes() {
		return fmt.Errorf("%w: value/mask %d/%d bytes, want %d",
			ErrKeySize, len(e.Value), len(e.Mask), t.KeyBytes())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) >= t.Spec.Size {
		return fmt.Errorf("%w: %q at %d entries", ErrTableFull, t.Spec.Name, t.Spec.Size)
	}
	ne := &ternaryEntry{
		value:    append([]byte(nil), e.Value...),
		mask:     append([]byte(nil), e.Mask...),
		priority: e.Priority,
		data:     append([]byte(nil), e.Data...),
	}
	idx := sort.Search(len(t.entries), func(i int) bool {
		return t.entries[i].priority < ne.priority
	})
	t.entries = append(t.entries, nil)
	copy(t.entries[idx+1:], t.entries[idx:])
	t.entries[idx] = ne
	t.gen++
	return nil
}

// Clear removes all entries.
func (t *TernaryTable) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries = nil
	t.gen++
}

// Lookup returns the action data of the highest-priority matching entry.
func (t *TernaryTable) Lookup(key []byte) ([]byte, bool) {
	t.mu.RLock()
	for _, e := range t.entries {
		if maskedEqual(key, e.value, e.mask) {
			data := e.data
			t.mu.RUnlock()
			return data, true
		}
	}
	t.mu.RUnlock()
	return nil, false
}

func maskedEqual(key, value, mask []byte) bool {
	if len(key) != len(value) {
		return false
	}
	for i := range key {
		if key[i]&mask[i] != value[i]&mask[i] {
			return false
		}
	}
	return true
}
