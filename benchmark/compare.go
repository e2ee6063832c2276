package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare A B applies the benchmark's own bounds to two sets of result
// files (one file per run; a set is a comma-separated list). One row is
// printed per workload and metric:
//
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  the spread on either side is wider than the bound, and
//	            not every run of B reads better than every run of A
//	improved    better by more than the bound
//	unchanged   otherwise
//
// Modeled metrics and failed_frac have no tolerance: any difference is an
// improvement or a regression. Per-layer host metrics carry no bound in
// the benchmark; they are classified against layerBound for reading but
// never decide the exit code.
const layerBound = 0.10

// claimPairs is the least number of parent/change pairs a claimed gain
// rests on; claimWins the share of them the change must win.
const (
	claimPairs = 10
	claimWins  = 0.9
)

func loadReports(paths []string) ([]*report, error) {
	var out []*report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Schema != resultSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, r.Schema, resultSchema)
		}
		out = append(out, &r)
	}
	return out, nil
}

// side is one metric on one workload across a set's runs.
type side struct {
	values     []float64 // one per run
	q1, q3     float64   // within-run quartiles, used when the set is one run
	unresolved bool      // some run flagged the workload as drifted
}

func gather(reps []*report, workload, metric string) (side, bool) {
	var s side
	for _, r := range reps {
		for _, wr := range r.Workloads {
			if wr.Name != workload {
				continue
			}
			mv, ok := wr.Metrics[metric]
			if !ok {
				continue
			}
			s.values = append(s.values, mv.Value)
			s.q1, s.q3 = mv.Q1, mv.Q3
			s.unresolved = s.unresolved || wr.Unresolved
		}
	}
	return s, len(s.values) > 0
}

// spread is the interquartile range as a share of the median: across runs
// when there are several, across the one run's repeats otherwise.
func (s side) spread() float64 {
	m := median(s.values)
	if m == 0 {
		return 0
	}
	if len(s.values) > 1 {
		return (quantile(s.values, 0.75) - quantile(s.values, 0.25)) / math.Abs(m)
	}
	return (s.q3 - s.q1) / math.Abs(m)
}

// worse returns how much worse b is than a as a share of a, positive when
// worse, in the metric's own direction.
func worse(def metricDef, a, b float64) float64 {
	d := b - a
	if def.Better == "higher" {
		d = -d
	}
	if a == 0 {
		if d == 0 {
			return 0
		}
		if d > 0 {
			return 1
		}
		return -1
	}
	return d / math.Abs(a)
}

func classify(def metricDef, a, b side) string {
	ma, mb := median(a.values), median(b.values)
	w := worse(def, ma, mb)
	if def.Modeled {
		switch {
		case w > 0:
			return "regressed"
		case w < 0:
			return "improved"
		}
		for _, v := range append(append([]float64(nil), a.values...), b.values...) {
			if v != ma {
				return "regressed" // the runs of one side disagree: the model is not deterministic
			}
		}
		return "unchanged"
	}
	bound := def.Bound
	if bound == 0 {
		bound = layerBound
	}
	if w > bound {
		return "regressed"
	}
	if a.unresolved || b.unresolved || a.spread() > bound || b.spread() > bound {
		if allBetter(def, a.values, b.values) {
			return "improved"
		}
		return "unresolved"
	}
	if w < -bound {
		return "improved"
	}
	return "unchanged"
}

// allBetter: every run of b reads better than every run of a. One run a
// side shows nothing of the kind.
func allBetter(def metricDef, a, b []float64) bool {
	if len(a) < 2 || len(b) < 2 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worse(def, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// claimMet applies the pairs rule: the change wins at least nine tenths of
// at least ten pairs (ties count for neither side), and the medians differ
// by more than the parent's own interquartile range.
func claimMet(def metricDef, a, b side) (bool, string) {
	pairs := min(len(a.values), len(b.values))
	if pairs < claimPairs {
		return false, fmt.Sprintf("needs %d pairs of runs, has %d", claimPairs, pairs)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if worse(def, a.values[i], b.values[i]) < 0 {
			wins++
		}
	}
	gap := math.Abs(median(b.values) - median(a.values))
	iqr := quantile(a.values, 0.75) - quantile(a.values, 0.25)
	detail := fmt.Sprintf("won %d of %d pairs, medians differ by %.4g against a parent IQR of %.4g", wins, pairs, gap, iqr)
	return float64(wins) >= claimWins*float64(pairs) && gap > iqr, detail
}

// runCompare prints the rows and returns the exit code: 1 on any
// regression of an end-to-end or modeled metric, a larger failed_frac, or
// an unmet claim.
func runCompare(w io.Writer, pathsA, pathsB []string, claim string) int {
	ra, errA := loadReports(pathsA)
	rb, errB := loadReports(pathsB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -compare: %v\n", err)
		return 2
	}
	return compareReports(w, ra, rb, claim)
}

func compareReports(w io.Writer, ra, rb []*report, claim string) int {
	code := 0
	claimSeen := claim == ""
	fmt.Fprintf(w, "%-20s %-36s %14s %14s %8s  %s\n", "workload", "metric", "parent", "change", "worse%", "status")
	for _, wd := range workloadDefs {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range defs {
				a, okA := gather(ra, wd.Name, def.Name)
				b, okB := gather(rb, wd.Name, def.Name)
				if !okA || !okB {
					continue
				}
				status := classify(def, a, b)
				decides := def.Bound > 0 || def.Modeled
				if claim == wd.Name+":"+def.Name {
					claimSeen = true
					met, detail := claimMet(def, a, b)
					if met {
						status = "improved (claim met: " + detail + ")"
					} else {
						status += " (claim NOT met: " + detail + ")"
						code = 1
					}
				}
				if status == "regressed" && decides {
					code = 1
				}
				if !decides {
					status += " (no bound)"
				}
				fmt.Fprintf(w, "%-20s %-36s %14.6g %14.6g %+8.2f  %s\n", wd.Name, def.Name,
					median(a.values), median(b.values), 100*worse(def, median(a.values), median(b.values)), status)
			}
		}
	}
	if !claimSeen {
		fmt.Fprintf(w, "claim %q names no workload:metric present in both sets\n", claim)
		code = 1
	}
	verdict := "no regression"
	if code != 0 {
		verdict = "REGRESSION or unmet claim"
	}
	fmt.Fprintf(w, "\n%s (%d parent runs, %d change runs)\n", verdict, len(ra), len(rb))
	return code
}
