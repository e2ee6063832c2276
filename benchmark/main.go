// Command benchmark is the repository's benchmark: six workloads that
// cover the cable's datapath and its control plane, each reporting what the
// modeled cable does (simulated clock) beside what the simulator costs
// (host clock), with a per-layer attribution taken from the outside: spans
// around callbacks the benchmark owns and isolated drivers of each layer's
// public functions. See README.md in this directory.
//
// The driver's contract (BENCHMARK.json) is
//
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// which prints a table and, as its last line, one JSON object. Without
// arguments every workload runs, both passes, with repeats interleaved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// runSeconds is the time spent on repeats per workload and pass when
// -seconds is not given; BENCHMARK.json's run_seconds is the same number.
const runSeconds = 10

type options struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     string // "0" end-to-end pass, "1" per-layer pass, "" both
	quick     bool
	out       string
}

func main() {
	var (
		opt      options
		workload = flag.String("workload", "all", "workload name, comma-separated names, or all")
		compare  = flag.Bool("compare", false, "compare result files: -compare A.json[,A2.json...] B.json[,B2.json...]")
		claim    = flag.String("claim", "", "with -compare: workload:metric the change claims to improve (needs 10 pairs)")
	)
	flag.Int64Var(&opt.seed, "seed", 42, "the only input to workload generation")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "time to spend on repeats, per workload and pass")
	flag.StringVar(&opt.trace, "trace", "", "0: end-to-end pass only, 1: per-layer pass only, empty: both")
	flag.BoolVar(&opt.quick, "quick", false, "tiny fixed work, to prove every path runs")
	flag.StringVar(&opt.out, "out", "", "write the full result (host, metrics, span sample) to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare needs two arguments: the parent's result files and the change's")
		}
		os.Exit(runCompare(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","), *claim))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if opt.trace != "" && opt.trace != "0" && opt.trace != "1" {
		fatal("-trace must be 0 or 1")
	}
	if opt.seconds <= 0 || math.IsNaN(opt.seconds) {
		fatal("-seconds must be positive")
	}
	if *workload == "all" {
		for _, d := range workloadDefs {
			opt.workloads = append(opt.workloads, d.Name)
		}
	} else {
		opt.workloads = strings.Split(*workload, ",")
	}

	rep, err := runBenchmark(opt)
	if err != nil {
		fatal("%v", err)
	}
	printReport(os.Stdout, rep)
	if opt.out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			fatal("encoding result: %v", err)
		}
		if err := os.WriteFile(opt.out, append(data, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	if len(rep.Workloads) == 1 && opt.trace != "" {
		fmt.Println(contractLine(rep.Workloads[0], opt.trace))
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func newWorkload(name string, sz sizing) (workload, error) {
	switch name {
	case wlNAT64, wlXDP64, wlChurn:
		return &cableWorkload{spec: cableSpecs(sz)[name], sz: sz}, nil
	case wlOverlay:
		return newOverlayWorkload(sz), nil
	case wlCtl:
		return newCtlWorkload(sz), nil
	case wlFleet:
		return newFleetWorkload(sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// wlState is one workload's accumulated repeats.
type wlState struct {
	name     string
	w        workload
	untraced []repeat
	traced   []repeat
	tr       *tracer
	layers   layerOut
	spent    float64 // seconds spent on repeats so far in the current pass
	broken   bool    // a repeat measured nothing (its set-up failed): stop scheduling
}

// doRepeat runs one repeat between two calibration spins. The collection
// before it puts every repeat on the same footing: none inherits the
// previous one's (or another workload's) garbage. The one after it keeps
// the collector's background workers, which would share a core with the
// spin, out of the second calibration.
func (s *wlState) doRepeat(traced bool) {
	t0 := time.Now()
	runtime.GC()
	before := calibrate()
	var tr *tracer
	if traced {
		tr = s.tr
	}
	r := s.w.run(tr)
	runtime.GC()
	r.calibNs = (before + calibrate()) / 2
	s.spent += time.Since(t0).Seconds()
	s.broken = s.broken || r.win.ops == 0
	if traced {
		s.traced = append(s.traced, r)
	} else {
		s.untraced = append(s.untraced, r)
	}
}

// runBenchmark executes the selected passes. Repeats are interleaved
// round-robin across workloads (w1 r1, w2 r1, ... w1 r2, ...) so slow host
// drift lands on all of them alike.
func runBenchmark(opt options) (*report, error) {
	sz := sizing{quick: opt.quick, seed: opt.seed}
	host := describeHost()
	var states []*wlState
	for _, name := range opt.workloads {
		w, err := newWorkload(name, sz)
		if err != nil {
			return nil, err
		}
		states = append(states, &wlState{name: name, w: w, tr: newTracer(), layers: layerOut{values: map[string]float64{}}})
	}

	roundRobin := func(budget float64, minRounds int, round func(*wlState)) {
		for _, s := range states {
			s.spent = 0
		}
		for n := 0; ; n++ {
			active := false
			for _, s := range states {
				if !s.broken && (n < minRounds || s.spent < budget) {
					round(s)
					active = true
				}
			}
			if !active {
				return
			}
		}
	}
	if opt.quick {
		opt.seconds = 0 // the least number of repeats, whatever they take
	}
	if opt.trace != "1" {
		roundRobin(opt.seconds, sz.pick(5, 2), func(s *wlState) { s.doRepeat(false) })
	}
	if opt.trace != "0" {
		// A quarter of the work traced, a quarter untraced beside it for
		// the overhead, then the isolated drivers.
		roundRobin(opt.seconds/2, sz.pick(2, 1), func(s *wlState) {
			s.doRepeat(false)
			s.doRepeat(true)
		})
		for _, s := range states {
			s.w.isolate(&s.layers)
		}
	}

	host.finish()
	rep := &report{Schema: resultSchema, Host: host, Seed: opt.seed, Quick: opt.quick, Seconds: opt.seconds, Trace: opt.trace, Correct: true}
	calib := runCalibMedian(states)
	for _, s := range states {
		wr := aggregate(s, calib, opt.trace != "0")
		if wr.Failed > 0 {
			rep.Correct = false
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// runCalibMedian is the run's median calibration spin over every repeat of
// every workload.
func runCalibMedian(states []*wlState) float64 {
	var all []float64
	for _, s := range states {
		for _, r := range append(append([]repeat(nil), s.untraced...), s.traced...) {
			all = append(all, r.calibNs)
		}
	}
	return median(all)
}
