// Command flexsfp-bench regenerates every table and figure of the
// FlexSFP paper's evaluation and prints paper-versus-model reports.
//
// It is entirely data-driven over the internal/exp registry: every
// experiment the evaluation suite registers (internal/exp/paper) is
// addressable by name or glob and takes the same knob set — no
// per-experiment flag matrix.
//
// Usage:
//
//	flexsfp-bench                   # run everything
//	flexsfp-bench -list             # enumerate registered experiments
//	flexsfp-bench -run table1,power
//	flexsfp-bench -run 'table*'     # glob selection
//	flexsfp-bench -seed 42          # uniform across all experiments
//	flexsfp-bench -trials 8         # multi-seed runs with 95% CIs
//	flexsfp-bench -parallel 4       # bound the worker pool
//	flexsfp-bench -json             # machine-readable results blob
//	flexsfp-bench -faults           # include the fault-injection sweep
//	flexsfp-bench -faults -fault-rate 0.4
//	flexsfp-bench -clock 312500000 -width 128  # operating-point override
//	flexsfp-bench -telemetry -run linerate     # instrumented run
//	flexsfp-bench -shards 4 -run linerate      # parallel simulation core
//
// -telemetry opts experiments into in-cable instrumentation: modules run
// with the metric registry attached and headline counters (frames, mean
// PPE latency) are folded into the result envelopes. Off by default so
// canonical outputs stay byte-identical.
//
// -shards sets how many event heaps the netsim experiments (linerate,
// overlay_linerate, overlay_failover) partition their topology over; they
// always run on the conservatively-synchronized parallel simulation core,
// and 0 means one heap. It is an execution-placement knob — results are
// byte-identical at any shard count, and it is deliberately absent from
// the JSON params echo.
//
// The "faults" chaos experiment is registered opt-in: it only joins
// wildcard selections ("all", globs) when -faults is given (it can also
// be requested by name with -run faults), keeping default outputs
// byte-identical to fault-free builds.
//
// Independent experiments run concurrently (bounded by -parallel, or
// GOMAXPROCS); output order is fixed regardless of completion order,
// and every random draw derives from -seed, so reports are identical
// for any worker count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"flexsfp/internal/exp"
	"flexsfp/internal/runner"

	_ "flexsfp/internal/exp/paper" // self-registers the evaluation suite
)

// jsonExperiment is one entry of the -json results blob: the historical
// {name, wall_ms, metrics} triple plus the typed envelope additions
// (params echo and headline summary metrics).
type jsonExperiment struct {
	Name    string       `json:"name"`
	WallMs  float64      `json:"wall_ms"`
	Params  exp.Params   `json:"params"`
	Summary []exp.Metric `json:"summary,omitempty"`
	Metrics any          `json:"metrics"`
}

// jsonReport is the top-level -json blob, stable enough to diff across
// runs (every line but wall_ms is deterministic).
type jsonReport struct {
	Seed        int64            `json:"seed"`
	Trials      int              `json:"trials"`
	Parallel    int              `json:"parallel"`
	WallMs      float64          `json:"wall_ms"`
	Experiments []jsonExperiment `json:"experiments"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the selected
// experiments and writes the report to stdout, returning the exit code.
// With no args it prints the default report docs/RESULTS.txt holds.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexsfp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered experiments and exit")
	runList := fs.String("run", "all", "comma-separated experiment names or globs (see -list)")
	seed := fs.Int64("seed", 1, "root simulation seed, applied uniformly to every experiment")
	trials := fs.Int("trials", 1, "independent seeds per stochastic experiment (>1 reports mean ± 95% CI)")
	parallel := fs.Int("parallel", 0, "max concurrent workers (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON results blob instead of tables")
	withFaults := fs.Bool("faults", false, "include the opt-in fault-injection sweep in wildcard selections")
	faultRate := fs.Float64("fault-rate", 0.2, "max fault-rate multiplier swept by the faults experiment")
	clockHz := fs.Int64("clock", 0, "PPE clock override in Hz (0 = §5.1 baseline 156.25 MHz)")
	width := fs.Int("width", 0, "PPE datapath width override in bits (0 = §5.1 baseline 64)")
	withTelemetry := fs.Bool("telemetry", false, "instrument experiment modules and fold headline counters into results")
	shards := fs.Int("shards", 0, "partition the netsim experiments over N parallel simulation shards (0 = 1)")
	fleetSize := fs.Int("fleet", 0, "simulated module count for the fleet_ota experiment (0 = its default)")
	fleetShards := fs.Int("fleet-shards", 0, "fleet controller worker shard count for fleet_ota (0 = its default)")
	optimize := fs.Bool("opt", false, "run the pipeline optimizer over every program experiments build")
	verbose := fs.Bool("v", false, "print experiment progress to stderr")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprint(stdout, exp.Default.List())
		return 0
	}

	chosen, err := exp.Default.Select(*runList, *withFaults)
	if err != nil {
		fmt.Fprintf(stderr, "flexsfp-bench: %v\n", err)
		return 2
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "flexsfp-bench: no experiment matched -run=%s\n", *runList)
		return 2
	}

	ctx := exp.RunContext{
		Seed:         *seed,
		Trials:       *trials,
		Parallelism:  *parallel,
		FaultRate:    *faultRate,
		ClockHz:      *clockHz,
		DatapathBits: *width,
		Telemetry:    *withTelemetry,
		Shards:       *shards,
		FleetSize:    *fleetSize,
		FleetShards:  *fleetShards,
		Optimize:     *optimize,
	}
	if *verbose {
		var mu sync.Mutex
		ctx.Progress = func(msg string) {
			mu.Lock()
			fmt.Fprintln(stderr, "flexsfp-bench:", msg)
			mu.Unlock()
		}
	}

	// Run the selected experiments concurrently; each slot records its own
	// result and wall time, and output stays in registry order.
	results := make([]exp.Result, len(chosen))
	wallMs := make([]float64, len(chosen))
	jobs := make([]func() error, len(chosen))
	for i, e := range chosen {
		jobs[i] = func() error {
			ctx.Progressf("running %s", e.Name())
			start := time.Now()
			res, err := e.Run(ctx)
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name(), err)
			}
			results[i] = res
			wallMs[i] = float64(time.Since(start).Microseconds()) / 1000
			ctx.Progressf("finished %s (%.1f ms)", e.Name(), wallMs[i])
			return nil
		}
	}
	start := time.Now()
	if err := runner.Run(runner.Options{Parallelism: *parallel}, jobs...); err != nil {
		fmt.Fprintf(stderr, "flexsfp-bench: %v\n", err)
		return 1
	}

	if *jsonOut {
		blob := jsonReport{
			Seed:     *seed,
			Trials:   *trials,
			Parallel: *parallel,
			WallMs:   float64(time.Since(start).Microseconds()) / 1000,
		}
		for i, res := range results {
			env := res.Envelope()
			blob.Experiments = append(blob.Experiments, jsonExperiment{
				Name:    env.Name,
				WallMs:  wallMs[i],
				Params:  env.Params,
				Summary: env.Metrics,
				Metrics: env.Detail,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(blob); err != nil {
			fmt.Fprintf(stderr, "flexsfp-bench: encode: %v\n", err)
			return 1
		}
		return 0
	}
	for _, res := range results {
		fmt.Fprintln(stdout, res.Render())
	}
	return 0
}
