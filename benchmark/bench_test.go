package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// benchmarkJSON is the driver's schema of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestRegistryMatchesBenchmarkJSON: the code's registry and BENCHMARK.json
// list the same workloads and metrics, in the same order, with the same
// units, directions and bounds.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", bj.RunSeconds, runSeconds)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command = %v, want %v", bj.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths = %v, want %v", bj.Paths, want)
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry", len(bj.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if got := bj.Workloads[i]; got.Name != d.Name || got.Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), registry %q (%q)", i, got.Name, got.Why, d.Name, d.Why)
		}
		if len(d.Why) > 200 || strings.Contains(d.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", d.Name, len(d.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the registry", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, registry %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || d.Workloads != nil {
			t.Errorf("end_to_end %s: needs a bound in (0, 0.25] and every workload", d.Name)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the registry", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, registry %+v", i, got, d)
		}
	}
	if len(metricByName) != len(endToEnd)+len(perLayer) {
		t.Errorf("a metric name is used twice")
	}
}

func quickOptions(trace string) options {
	opt := options{seed: 42, seconds: runSeconds, quick: true, trace: trace}
	for _, d := range workloadDefs {
		opt.workloads = append(opt.workloads, d.Name)
	}
	return opt
}

// quickRun is one run of every workload and both passes at the quick sizes,
// shared by the tests below.
var quickRun = sync.OnceValues(func() (*report, error) { return runBenchmark(quickOptions("")) })

// TestQuickRunEmitsEveryMetric: every check passes, and every metric the
// registry names for a workload is emitted, finite, with its unit.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	rep, err := quickRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads ran, want %d", len(rep.Workloads), len(workloadDefs))
	}
	for _, wr := range rep.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				mv, ok := wr.Metrics[d.Name]
				switch {
				case !d.appliesTo(wr.Name):
					if ok {
						t.Errorf("%s: %s emitted but the registry does not list it for this workload", wr.Name, d.Name)
					}
				case !ok:
					t.Errorf("%s: %s not emitted", wr.Name, d.Name)
				case mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || mv.N < 1:
					t.Errorf("%s: %s = %+v, want a finite value in %s", wr.Name, d.Name, mv, d.Unit)
				case isEndToEnd(d.Name) && mv.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", wr.Name, d.Name, mv.Value)
				}
			}
		}
		if len(wr.SpanStats) == 0 || len(wr.Spans) == 0 {
			t.Errorf("%s: the traced pass recorded no spans", wr.Name)
		}
		for _, trace := range []string{"0", "1"} {
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted *uint64                    `json:"attempted"`
				Failed    *uint64                    `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(contractLine(wr, trace)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s: contract line for -trace %s: %v", wr.Name, trace, err)
			}
			want := len(endToEnd)
			if trace == "1" {
				want = len(perLayer)
			}
			if len(line.Metrics) != want {
				t.Errorf("%s: contract line for -trace %s has %d metrics, want %d", wr.Name, trace, len(line.Metrics), want)
			}
		}
	}
}

// TestQuickModeledDeterministic: a second run of the same seed agrees with
// the first on the model digest and on every modeled metric it produces.
func TestQuickModeledDeterministic(t *testing.T) {
	a, err := quickRun()
	if err != nil {
		t.Fatal(err)
	}
	b, err := runBenchmark(quickOptions("0"))
	if err != nil {
		t.Fatal(err)
	}
	for i, wb := range b.Workloads {
		wa := a.Workloads[i]
		if wa.Digest != wb.Digest || wa.Digest == "" {
			t.Errorf("%s: digests %q and %q", wa.Name, wa.Digest, wb.Digest)
		}
		modeled := 0
		for name, mv := range wb.Metrics {
			if metricByName[name].Modeled {
				modeled++
				if mv.Value != wa.Metrics[name].Value {
					t.Errorf("%s: %s = %v then %v", wa.Name, name, wa.Metrics[name].Value, mv.Value)
				}
			}
		}
		if modeled < 2 {
			t.Errorf("%s: only %d modeled metrics compared", wa.Name, modeled)
		}
	}
}

func TestCompareClassify(t *testing.T) {
	host := metricByName["host_ns_per_op_p50"] // lower is better, bound 25 %
	up := metricByName["host_ops_per_s"]       // higher is better, bound 25 %
	model := metricByName["modeled_mpps"]
	runs := func(vs ...float64) side { return side{values: vs} }
	one := func(v, q1, q3 float64) side { return side{values: []float64{v}, q1: q1, q3: q3} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b side
		want string
	}{
		{"within bound", host, one(100, 99, 101), one(105, 104, 106), "unchanged"},
		{"worse than bound", host, one(100, 99, 101), one(130, 129, 131), "regressed"},
		{"better than bound", host, one(100, 99, 101), one(70, 69, 71), "improved"},
		{"higher is better", up, one(100, 99, 101), one(70, 69, 71), "regressed"},
		{"spread wider than bound", host, one(100, 80, 115), one(103, 102, 104), "unresolved"},
		{"wide spread but every run better", host, runs(100, 120, 140), runs(80, 85, 90), "improved"},
		{"drifted run", host, side{values: []float64{100}, q1: 100, q3: 100, unresolved: true}, one(100, 100, 100), "unresolved"},
		{"modeled equal", model, runs(9.5, 9.5), runs(9.5, 9.5), "unchanged"},
		{"modeled moved", model, runs(9.5), runs(9.4999), "regressed"},
		{"modeled improved", model, runs(9.5), runs(9.6), "improved"},
		{"modeled nondeterministic", model, runs(9.5, 9.5), runs(9.4, 9.6), "regressed"},
	} {
		if got := classify(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	parent := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	if met, why := claimMet(host, parent, runs(90, 91, 89, 90, 92, 88, 90, 91, 89, 101)); !met {
		t.Errorf("9 wins of 10 with a clear gap should meet the claim: %s", why)
	}
	if met, _ := claimMet(host, parent, runs(90, 91, 89, 90, 92, 99, 100, 101, 89, 90)); met {
		t.Errorf("8 wins of 10 must not meet the claim")
	}
	if met, _ := claimMet(host, runs(100, 101), runs(90, 91)); met {
		t.Errorf("two pairs must not meet the claim")
	}
}
