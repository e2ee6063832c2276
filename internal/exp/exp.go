// Package exp is the experiment framework behind the FlexSFP evaluation
// harness. Every table and figure of the paper — and every future
// workload — is an Experiment: a named, self-describing unit that takes
// a RunContext (the uniform knob set: root seed, trial count,
// parallelism, fault profile, clock/datapath overrides, progress sink)
// and returns a Result that renders both as the paper-style text table
// and as a canonical JSON envelope.
//
// Experiments self-register in the process-wide Default registry (an
// init in their package), which makes them addressable by name or glob
// from cmd/flexsfp-bench without any per-experiment flag plumbing.
// Determinism is inherited from internal/runner: per-trial seeds are a
// pure SplitMix64 function of (RunContext.Seed, trial), so results are
// bit-identical for any -parallel setting.
package exp

import (
	"fmt"

	"flexsfp/internal/runner"
)

// Experiment is one registered unit of the evaluation harness.
type Experiment interface {
	// Name is the stable registry key ("table1", "linerate", ...).
	Name() string
	// Describe is a one-line human summary shown by -list.
	Describe() string
	// Run executes the experiment under the given knobs.
	Run(ctx RunContext) (Result, error)
}

// RunContext carries every knob an experiment can depend on. A zero
// value is valid: it means seed 0, a single trial, GOMAXPROCS workers,
// and the §5.1 baseline operating point.
type RunContext struct {
	// Seed is the root seed; per-trial seeds derive from it through
	// TrialSeed. Experiments with no randomness may ignore it.
	Seed int64
	// Trials is the number of independent seeds (<=0 means 1). With
	// more than one, stochastic experiments report mean ± 95% CI.
	Trials int
	// Parallelism bounds concurrent trial workers (0 = GOMAXPROCS).
	Parallelism int
	// FaultRate is the maximum fault-rate multiplier swept by chaos
	// experiments (<=0 means the experiment's default).
	FaultRate float64
	// ClockHz / DatapathBits override the §5.1 operating point for
	// experiments that build modules (0 keeps the baseline).
	ClockHz      int64
	DatapathBits int
	// Telemetry opts the run into in-cable instrumentation: experiments
	// that support it attach a metric registry to their modules and fold
	// headline counters into the result envelope. Off by default so
	// canonical envelopes stay byte-identical.
	Telemetry bool
	// Shards is how many event heaps the netsim experiments (which always
	// run on the parallel simulation core, netsim.Sharded) partition
	// their topology over, advanced under conservative lookahead
	// synchronization; 0 means 1. Shards is an execution-placement knob,
	// not a model parameter — results are byte-identical at any shard
	// count, which is why it is deliberately NOT echoed in Params.
	Shards int
	// FleetSize overrides the simulated module count for fleet-scale
	// experiments (fleet_ota); 0 keeps the experiment's default. Unlike
	// Shards, this IS a model parameter — it changes what is simulated —
	// so it is echoed in Params.
	FleetSize int
	// FleetShards overrides the fleet controller's worker shard count;
	// 0 keeps the default. Also a model parameter: shard membership
	// determines canary sets, gate scopes, and blast radii.
	FleetShards int
	// Optimize runs the opt pass pipeline (table merging, stage fusion,
	// XDP instruction packing) over every program experiments build.
	// Off by default so canonical envelopes stay byte-identical.
	Optimize bool
	// Progress, when non-nil, receives coarse progress messages. It may
	// be called from the goroutine running the experiment.
	Progress func(msg string)
}

// TrialSeed derives the deterministic seed for one trial; delegation to
// internal/runner keeps the derivation identical everywhere (reproduce
// trial t alone by running a single-trial context at this seed).
func (c RunContext) TrialSeed(trial int) int64 {
	return runner.TrialSeed(c.Seed, trial)
}

// EffectiveTrials is Trials clamped to at least one.
func (c RunContext) EffectiveTrials() int {
	if c.Trials < 1 {
		return 1
	}
	return c.Trials
}

// Progressf formats a progress message into the sink, if any.
func (c RunContext) Progressf(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

// Params is the JSON echo of the knobs a run used, embedded in every
// result envelope so a blob is self-describing and replayable.
func (c RunContext) Params() Params {
	return Params{
		Seed:         c.Seed,
		Trials:       c.EffectiveTrials(),
		Parallelism:  c.Parallelism,
		FaultRate:    c.FaultRate,
		ClockHz:      c.ClockHz,
		DatapathBits: c.DatapathBits,
		Telemetry:    c.Telemetry,
		FleetSize:    c.FleetSize,
		FleetShards:  c.FleetShards,
		Optimize:     c.Optimize,
	}
}

// Params mirrors RunContext in the JSON envelope.
type Params struct {
	Seed         int64   `json:"seed"`
	Trials       int     `json:"trials"`
	Parallelism  int     `json:"parallel,omitempty"`
	FaultRate    float64 `json:"fault_rate,omitempty"`
	ClockHz      int64   `json:"clock_hz,omitempty"`
	DatapathBits int     `json:"datapath_bits,omitempty"`
	Telemetry    bool    `json:"telemetry,omitempty"`
	FleetSize    int     `json:"fleet_size,omitempty"`
	FleetShards  int     `json:"fleet_shards,omitempty"`
	Optimize     bool    `json:"optimize,omitempty"`
}

// Result is what an experiment returns: the paper-style text rendering
// plus the typed JSON envelope.
type Result interface {
	// Render formats the human-readable report (the paper-style table).
	Render() string
	// Envelope returns the canonical machine-readable result.
	Envelope() Envelope
}

// Envelope is the common typed result schema: the experiment's name,
// the knobs it ran under, headline metrics with cross-trial CIs and
// paper-reference deltas, and the experiment-specific detail payload
// (the full typed result struct, marshaled as-is).
type Envelope struct {
	Name    string   `json:"name"`
	Params  Params   `json:"params"`
	Metrics []Metric `json:"metrics,omitempty"`
	Detail  any      `json:"detail,omitempty"`
}

// Metric is one named scalar of the envelope, optionally aggregated
// across trials (CI95/N) and compared against the paper's published
// value (Paper/Delta, where Delta = Mean - Paper).
type Metric struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit,omitempty"`
	Mean  float64  `json:"mean"`
	CI95  float64  `json:"ci95,omitempty"`
	N     int      `json:"n,omitempty"`
	Paper *float64 `json:"paper,omitempty"`
	Delta *float64 `json:"delta,omitempty"`
}

// Scalar builds a single-value metric.
func Scalar(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Mean: v}
}

// FromSummary builds a metric from a cross-trial summary.
func FromSummary(name, unit string, s runner.Summary) Metric {
	return Metric{Name: name, Unit: unit, Mean: s.Mean, CI95: s.CI95(), N: s.N}
}

// VsPaper attaches the paper's published value and the model-minus-paper
// delta to the metric.
func (m Metric) VsPaper(paper float64) Metric {
	d := m.Mean - paper
	m.Paper, m.Delta = &paper, &d
	return m
}

// wrapped is the stock Result implementation: a pre-built envelope plus
// a deferred text renderer (usually the legacy Render method of the
// detail struct).
type wrapped struct {
	env    Envelope
	render func() string
}

func (w wrapped) Render() string     { return w.render() }
func (w wrapped) Envelope() Envelope { return w.env }

// NewResult wraps an envelope and a text renderer into a Result.
func NewResult(env Envelope, render func() string) Result {
	return wrapped{env: env, render: render}
}

// Def implements Experiment from plain fields — the idiomatic way to
// register an experiment:
//
//	exp.Register(exp.Def{
//	    ID:  "myexp",
//	    Doc: "what it reproduces",
//	    RunFn: func(ctx exp.RunContext) (exp.Result, error) { ... },
//	})
type Def struct {
	ID  string
	Doc string
	// Hidden excludes the experiment from wildcard selection ("all",
	// globs); it still runs when addressed by exact name or when the
	// caller opts hidden experiments in (bench -faults).
	Hidden bool
	RunFn  func(RunContext) (Result, error)
}

func (d Def) Name() string     { return d.ID }
func (d Def) Describe() string { return d.Doc }
func (d Def) Run(ctx RunContext) (Result, error) {
	if d.RunFn == nil {
		return nil, fmt.Errorf("exp: experiment %q has no RunFn", d.ID)
	}
	return d.RunFn(ctx)
}

// hidden is the optional interface consulted by wildcard selection.
type hidden interface{ isHidden() bool }

func (d Def) isHidden() bool { return d.Hidden }
