package ppe

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// CounterBank is a bank of 64-bit packet+byte counters, indexed densely.
//
// Each counter's (packets, bytes) pair is updated and read as a unit via a
// per-counter seqlock, so a management-plane Read racing a datapath Inc
// can never observe a torn pair (packets bumped, bytes not — the classic
// two-word counter bug). The writer section is two atomic adds between a
// CAS-claimed odd sequence and its even release; readers retry until they
// bracket a stable even sequence. Inc stays allocation-free and, in the
// single-writer case of one sim thread, the CAS never contends.
type CounterBank struct {
	name string
	ctrs []bankCounter
}

type bankCounter struct {
	seq     atomic.Uint64 // even = stable, odd = write in progress
	packets atomic.Uint64
	bytes   atomic.Uint64
}

// NewCounterBank allocates n counters.
func NewCounterBank(name string, n int) *CounterBank {
	return &CounterBank{name: name, ctrs: make([]bankCounter, n)}
}

// lock claims the counter's write section (seq becomes odd). The CAS
// arbitrates between concurrent writers; with a single writer it
// succeeds on the first try.
func (ctr *bankCounter) lock() {
	for {
		s := ctr.seq.Load()
		if s&1 == 0 && ctr.seq.CompareAndSwap(s, s+1) {
			return
		}
	}
}

// unlock releases the write section (seq returns to even).
func (ctr *bankCounter) unlock() { ctr.seq.Add(1) }

// Inc adds one packet of n bytes to counter i. Out-of-range indexes are
// ignored (hardware counters saturate silently). Zero allocations.
func (c *CounterBank) Inc(i int, n int) {
	if i < 0 || i >= len(c.ctrs) {
		return
	}
	ctr := &c.ctrs[i]
	ctr.lock()
	ctr.packets.Add(1)
	ctr.bytes.Add(uint64(n))
	ctr.unlock()
}

// Read returns (packets, bytes) of counter i as a consistent pair: the
// bytes always correspond to exactly the packets.
func (c *CounterBank) Read(i int) (uint64, uint64) {
	if i < 0 || i >= len(c.ctrs) {
		return 0, 0
	}
	ctr := &c.ctrs[i]
	for {
		s1 := ctr.seq.Load()
		if s1&1 != 0 {
			continue // write in progress
		}
		p := ctr.packets.Load()
		b := ctr.bytes.Load()
		if ctr.seq.Load() == s1 {
			return p, b
		}
	}
}

// Register is a single stateful scratch register.
type Register struct {
	name string
	v    atomic.Uint64
}

// NewRegister creates a named register.
func NewRegister(name string) *Register { return &Register{name: name} }

// Load returns the current value.
func (r *Register) Load() uint64 { return r.v.Load() }

// Store sets the value.
func (r *Register) Store(v uint64) { r.v.Store(v) }

// Add atomically adds d and returns the new value.
func (r *Register) Add(d uint64) uint64 { return r.v.Add(d) }

// MeterBank is a bank of token-bucket meters (single-rate two-color).
// Buckets refill in simulated time supplied by the caller, so the meters
// stay deterministic.
type MeterBank struct {
	name string
	mu   sync.Mutex
	m    []meterState
}

type meterState struct {
	rateBps    float64 // token fill rate in bits/sec
	burstBits  float64 // bucket depth in bits
	tokens     float64
	lastNs     uint64
	configured bool
}

// NewMeterBank allocates n meters (unconfigured meters pass everything).
func NewMeterBank(name string, n int) *MeterBank {
	return &MeterBank{name: name, m: make([]meterState, n)}
}

// Configure sets meter i to rateBps with a burst of burstBits, starting
// with a full bucket.
func (b *MeterBank) Configure(i int, rateBps, burstBits float64) error {
	if i < 0 || i >= len(b.m) {
		return fmt.Errorf("ppe: meter index %d out of range [0,%d)", i, len(b.m))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[i] = meterState{rateBps: rateBps, burstBits: burstBits, tokens: burstBits, configured: true}
	return nil
}

// Conform charges a frame of n bytes at simulated time nowNs against
// meter i and reports whether it conforms (green) or exceeds (red).
// Unconfigured meters always conform.
func (b *MeterBank) Conform(i int, nowNs uint64, n int) bool {
	if i < 0 || i >= len(b.m) {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ms := &b.m[i]
	if !ms.configured {
		return true
	}
	if nowNs > ms.lastNs {
		ms.tokens += ms.rateBps * float64(nowNs-ms.lastNs) / 1e9
		if ms.tokens > ms.burstBits {
			ms.tokens = ms.burstBits
		}
		ms.lastNs = nowNs
	}
	bits := float64(n * 8)
	if ms.tokens >= bits {
		ms.tokens -= bits
		return true
	}
	return false
}

// State is the registry of an application instance's runtime objects,
// addressable by name from the embedded control plane.
type State struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	ternary  map[string]*TernaryTable
	counters map[string]*CounterBank
	meters   map[string]*MeterBank
	regs     map[string]*Register
}

// NewState returns an empty registry.
func NewState() *State {
	return &State{
		tables:   make(map[string]*Table),
		ternary:  make(map[string]*TernaryTable),
		counters: make(map[string]*CounterBank),
		meters:   make(map[string]*MeterBank),
		regs:     make(map[string]*Register),
	}
}

// AddTable creates, registers and returns an exact-match table.
func (s *State) AddTable(spec TableSpec) *Table {
	t := NewTable(spec)
	s.mu.Lock()
	s.tables[spec.Name] = t
	s.mu.Unlock()
	return t
}

// AddTernary creates, registers and returns a ternary table.
func (s *State) AddTernary(spec TableSpec) *TernaryTable {
	t := NewTernaryTable(spec)
	s.mu.Lock()
	s.ternary[spec.Name] = t
	s.mu.Unlock()
	return t
}

// AddCounters creates, registers and returns a counter bank.
func (s *State) AddCounters(name string, n int) *CounterBank {
	c := NewCounterBank(name, n)
	s.mu.Lock()
	s.counters[name] = c
	s.mu.Unlock()
	return c
}

// AddMeters creates, registers and returns a meter bank.
func (s *State) AddMeters(name string, n int) *MeterBank {
	m := NewMeterBank(name, n)
	s.mu.Lock()
	s.meters[name] = m
	s.mu.Unlock()
	return m
}

// AddRegister creates, registers and returns a register.
func (s *State) AddRegister(name string) *Register {
	r := NewRegister(name)
	s.mu.Lock()
	s.regs[name] = r
	s.mu.Unlock()
	return r
}

// Table looks up an exact-match table by name.
func (s *State) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
}

// Ternary looks up a ternary table by name.
func (s *State) Ternary(name string) (*TernaryTable, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.ternary[name]
	return t, ok
}

// Counters looks up a counter bank by name.
func (s *State) Counters(name string) (*CounterBank, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.counters[name]
	return c, ok
}

// Meters looks up a meter bank by name.
func (s *State) Meters(name string) (*MeterBank, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.meters[name]
	return m, ok
}

// Register looks up a register by name.
func (s *State) Register(name string) (*Register, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.regs[name]
	return r, ok
}

// TableNames returns the registered exact-table names (sorted order is
// not guaranteed).
func (s *State) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for k := range s.tables {
		out = append(out, k)
	}
	return out
}
