// Package opt is the FlexSFP pipeline optimizer: the pass pipeline that
// sits between application compilation and HLS estimation in the §4.2
// program→bitstream flow. The seed flow reproduced the paper's Table 1/2
// accounting but performed zero optimization, so every compiled pipeline
// paid for dead stages, unfused passes, and unpacked soft-core programs.
// Per hXDP (instruction-level compaction and parallelization is where
// FPGA packet-program performance comes from) and Kugelblitz (executable
// cost-aware design-space exploration picks the operating point), this
// package provides:
//
//   - structural passes over ppe.Program (Optimize): exact-table merging
//     and stage fusion (which subsumes dead-stage elimination), cutting
//     PipelineDepth — and therefore latency — without touching the
//     behavioral Handler;
//   - instruction passes over xdp.Program (OptimizeXDP): unreachable-code
//     elimination, redundant load folding, dead register-write
//     elimination, and jump threading, plus hXDP-style VLIW packing
//     (scheduleCycles) that fills each stage's issue slots and shrinks
//     the soft core's per-packet occupancy (ppe.Program.ProgCycles),
//     raising CapacityPPS for instruction-bound programs.
//
// Every pass preserves observable behavior exactly: optimized and
// unoptimized programs produce identical verdicts and identical packet
// bytes on any input (including out-of-bounds aborts). The equivalence
// property is enforced by randomized property tests over every catalog
// app and by a native fuzz target over arbitrary programs.
//
// The companion subpackage opt/dse drives the cost-aware design-space
// exploration on top of these passes.
package opt

import (
	"flexsfp/internal/ppe"
	"flexsfp/internal/xdp"
)

// Defaults for the optimizer cost model.
const (
	// DefaultIssueWidth is the VLIW lane count of the soft core the
	// packing pass schedules for (hXDP uses a 4-lane datapath).
	DefaultIssueWidth = 4
	// DefaultStageActionBudget is how many action primitives one fused
	// match-action stage can host next to its table match: the action
	// crossbar of a stage has a bounded number of result buses.
	DefaultStageActionBudget = 6
)

// Options tune the optimizer cost model. The zero value selects the
// calibrated defaults.
type Options struct {
	// IssueWidth is the soft core's parallel issue width (VLIW lanes)
	// used by the packing pass. 0 means DefaultIssueWidth.
	IssueWidth int
	// StageActionBudget is the number of action primitives a single
	// fused stage can host. 0 means DefaultStageActionBudget.
	StageActionBudget int
}

func (o Options) withDefaults() Options {
	if o.IssueWidth <= 0 {
		o.IssueWidth = DefaultIssueWidth
	}
	if o.StageActionBudget <= 0 {
		o.StageActionBudget = DefaultStageActionBudget
	}
	return o
}

// Report summarizes what the structural pass pipeline did to a program.
type Report struct {
	Name         string `json:"name"`
	StagesBefore int    `json:"stages_before"`
	StagesAfter  int    `json:"stages_after"`
	TablesBefore int    `json:"tables_before"`
	TablesAfter  int    `json:"tables_after"`
	// DepthBefore/DepthAfter are PipelineDepth at the 64-bit baseline
	// width, the headline latency effect of fusion.
	DepthBefore int `json:"depth_before"`
	DepthAfter  int `json:"depth_after"`
}

// Optimize runs the structural pass pipeline over a compiled program and
// returns the optimized copy plus a report. The input program is not
// modified; the returned program shares the input's Handler, so verdicts
// are unchanged by construction — the passes only reshape the
// declarative structure the HLS estimator and the pipeline-depth
// accounting consume.
//
// Pass order matters and is fixed: table merging runs first (fewer
// physical tables means fewer match stages for fusion to respect), then
// stage fusion. Fusion subsumes dead-stage elimination: a declared stage
// with no work to host is a zero-cost merge into its neighbor.
//
// Optimize is idempotent: running it on its own output is a no-op.
func Optimize(p *ppe.Program, o Options) (*ppe.Program, Report) {
	o = o.withDefaults()
	q := *p
	q.Tables = append([]ppe.TableSpec(nil), p.Tables...)
	q.Actions = append([]ppe.ActionSpec(nil), p.Actions...)
	q.Registers = append([]ppe.RegisterSpec(nil), p.Registers...)
	rep := Report{
		Name:         p.Name,
		StagesBefore: p.Stages,
		TablesBefore: len(p.Tables),
	}
	q.Tables = mergeTables(q.Tables)
	q.Stages = fuseStages(&q, o)
	rep.StagesAfter = q.Stages
	rep.TablesAfter = len(q.Tables)
	rep.DepthBefore = p.PipelineDepth(64)
	rep.DepthAfter = q.PipelineDepth(64)
	return &q, rep
}

// mergeTables coalesces exact-match tables with identical key/value
// geometry into one physical bank holding the union of their entries.
// Legality: same-key-shape exact tables can share one hash lattice and
// one LSRAM plan; the merged bank disambiguates members with
// ceil(log2(n)) tag bits prefixed to the key, which the pass adds to
// KeyBits so the estimator prices the wider match honestly. Runtime
// behavior is untouched — ppe.State banks are per-app behavioral models,
// only the synthesized memory plan merges. Ternary tables are never
// merged: their cross-table priority semantics do not compose.
//
// The merged table takes the position and name prefix of its group's
// first member, so the output order is deterministic.
func mergeTables(tables []ppe.TableSpec) []ppe.TableSpec {
	if len(tables) < 2 {
		return tables
	}
	type shape struct {
		keyBits, valueBits int
	}
	groups := make(map[shape][]int)
	for i, t := range tables {
		if t.Kind != ppe.TableExact {
			continue
		}
		k := shape{t.KeyBits, t.ValueBits}
		groups[k] = append(groups[k], i)
	}
	drop := make([]bool, len(tables))
	out := make([]ppe.TableSpec, 0, len(tables))
	merged := make(map[int]ppe.TableSpec)
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		m := tables[members[0]]
		name := m.Name
		for _, i := range members[1:] {
			m.Size += tables[i].Size
			name += "+" + tables[i].Name
			drop[i] = true
		}
		m.Name = name
		m.KeyBits += tagBits(len(members))
		merged[members[0]] = m
	}
	for i, t := range tables {
		if drop[i] {
			continue
		}
		if m, ok := merged[i]; ok {
			t = m
		}
		out = append(out, t)
	}
	return out
}

// tagBits returns the key-tag width needed to disambiguate n merged
// tables sharing one bank.
func tagBits(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// fuseStages computes the minimal match-action chain the program's
// structure needs and returns min(declared, needed): fusion only ever
// shortens the pipeline, because a declared stage count may encode
// behavioral pipelining the structure cannot express. The budget math:
//
//   - one stage hosts at most one table match (exact or ternary);
//   - one stage's action crossbar hosts at most StageActionBudget
//     primitives;
//   - a soft-core program (ProgCycles > 0) additionally needs
//     ceil(ProgCycles / xdp.InsnsPerStage) stages of instruction store —
//     this is where packing pays: a packed program's issue schedule fits
//     fewer stage-equivalents of fabric.
//
// Two adjacent stages merge exactly when their combined cost fits one
// stage's budget, so needed = max over the three per-resource ceilings.
func fuseStages(p *ppe.Program, o Options) int {
	needed := 1
	if t := len(p.Tables); t > needed {
		needed = t
	}
	if a := (len(p.Actions) + o.StageActionBudget - 1) / o.StageActionBudget; a > needed {
		needed = a
	}
	if p.ProgCycles > 0 {
		if s := (p.ProgCycles + xdp.InsnsPerStage - 1) / xdp.InsnsPerStage; s > needed {
			needed = s
		}
	}
	if needed >= p.Stages {
		return p.Stages
	}
	return needed
}
