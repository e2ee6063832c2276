package ppe

import (
	"testing"

	"flexsfp/internal/netsim"
)

// BenchmarkEngineSubmit measures the engine hot path in isolation:
// submit → cycle accounting → scheduled verdict → handler, one frame in
// flight at a time.
func BenchmarkEngineSubmit(b *testing.B) {
	sim := netsim.New(1)
	e := NewEngine(sim, 156_250_000, 64, nil)
	if err := e.SetProgram(&Program{
		Name:    "pass",
		Stages:  1,
		Handler: HandlerFunc(func(ctx *Ctx) Verdict { return VerdictPass }),
	}); err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, 64)
	b.ReportAllocs()
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		e.Submit(frame, DirEdgeToOptical)
		sim.Run()
	}
}

// BenchmarkEngineSubmitQueued measures the queued path: a burst fills the
// input queue so each Submit also schedules a queue-release event.
func BenchmarkEngineSubmitQueued(b *testing.B) {
	sim := netsim.New(1)
	e := NewEngine(sim, 156_250_000, 64, nil)
	if err := e.SetProgram(&Program{
		Name:    "pass",
		Stages:  1,
		Handler: HandlerFunc(func(ctx *Ctx) Verdict { return VerdictPass }),
	}); err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, 64)
	b.ReportAllocs()
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		e.Submit(frame, DirEdgeToOptical)
		e.Submit(frame, DirEdgeToOptical)
		sim.Run()
	}
}

// BenchmarkTernaryLookup measures the 64-entry register TCAM.
func BenchmarkTernaryLookup(b *testing.B) {
	tab := NewTernaryTable(TableSpec{Name: "acl", Kind: TableTernary, KeyBits: 104, ValueBits: 8, Size: 64})
	key := make([]byte, 13)
	for i := 0; i < 64; i++ {
		v := make([]byte, 13)
		m := make([]byte, 13)
		v[0], m[0] = byte(i), 0xff
		if err := tab.Add(TernaryEntry{Value: v, Mask: m, Priority: i, Data: []byte{1}}); err != nil {
			b.Fatal(err)
		}
	}
	key[0] = 63 // worst case: matches the lowest-priority entry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Lookup(key)
	}
}
