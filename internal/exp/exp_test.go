package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func testDef(name string, hidden bool) Def {
	return Def{
		ID: name, Doc: "doc for " + name, Hidden: hidden,
		RunFn: func(ctx RunContext) (Result, error) {
			env := Envelope{Name: name, Params: ctx.Params()}
			return NewResult(env, func() string { return name + "\n" }), nil
		},
	}
}

func TestRegistryOrderAndLookup(t *testing.T) {
	r := NewRegistry()
	r.Register(testDef("b", false), testDef("a", false), testDef("c", true))
	if got := r.order; !reflect.DeepEqual(got, []string{"b", "a", "c"}) {
		t.Fatalf("order = %v, want registration order", got)
	}
	if sel, err := r.Select("a", false); err != nil || len(sel) != 1 || sel[0].Name() != "a" {
		t.Fatalf("Select(a) = %v, %v", sel, err)
	}
	if _, err := r.Select("nope", false); err == nil {
		t.Fatal("Select(nope) hit")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Register(testDef("x", false))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Register(testDef("x", false))
}

func TestRegistrySelect(t *testing.T) {
	r := NewRegistry()
	r.Register(testDef("table1", false), testDef("table2", false),
		testDef("power", false), testDef("faults", true))

	names := func(es []Experiment) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name())
		}
		return out
	}

	// "all" skips hidden experiments...
	got, err := r.Select("all", false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"table1", "table2", "power"}; !reflect.DeepEqual(names(got), want) {
		t.Errorf("Select(all) = %v, want %v", names(got), want)
	}
	// ...unless they are opted in...
	got, err = r.Select("all", true)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"table1", "table2", "power", "faults"}; !reflect.DeepEqual(names(got), want) {
		t.Errorf("Select(all, hidden) = %v, want %v", names(got), want)
	}
	// ...or named exactly.
	got, err = r.Select("faults,power", false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"power", "faults"}; !reflect.DeepEqual(names(got), want) {
		t.Errorf("Select(faults,power) = %v, want %v (registration order)", names(got), want)
	}
	// Globs match and dedup against exact names.
	got, err = r.Select("table*,table1", false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"table1", "table2"}; !reflect.DeepEqual(names(got), want) {
		t.Errorf("Select(table*) = %v, want %v", names(got), want)
	}
	// Unknown names and empty globs are errors.
	if _, err := r.Select("nope", false); err == nil {
		t.Error("Select(nope) did not fail")
	}
	if _, err := r.Select("z*", false); err == nil {
		t.Error("Select(z*) did not fail")
	}
}

func TestRegistryList(t *testing.T) {
	r := NewRegistry()
	r.Register(testDef("power", false), testDef("faults", true))
	out := r.List()
	if !strings.Contains(out, "power") || !strings.Contains(out, "doc for power") {
		t.Errorf("List() missing entries:\n%s", out)
	}
	if !strings.Contains(out, "[opt-in]") {
		t.Errorf("List() does not flag hidden experiments:\n%s", out)
	}
}

// TestCI95KnownValues pins the shared CI math the generic trial driver
// reports: mean, Bessel-corrected stddev, and the 1.96·σ/√n interval.
func TestCI95KnownValues(t *testing.T) {
	tr := Trials[float64]{Results: []float64{1, 2, 3, 4, 5}}
	s := tr.Metric(func(x float64) float64 { return x })
	if s.N != 5 || s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if want := math.Sqrt(2.5); math.Abs(s.Stddev-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.Stddev, want)
	}
	if want := 1.96 * math.Sqrt(2.5) / math.Sqrt(5); math.Abs(s.CI95()-want) > 1e-12 {
		t.Errorf("CI95 = %v, want %v", s.CI95(), want)
	}

	// Two symmetric samples: stddev √2, CI95 exactly 1.96.
	s2 := Trials[float64]{Results: []float64{2, 4}}.Metric(func(x float64) float64 { return x })
	if math.Abs(s2.CI95()-1.96) > 1e-12 {
		t.Errorf("CI95({2,4}) = %v, want 1.96", s2.CI95())
	}

	// Fewer than two samples: no interval.
	s1 := Trials[float64]{Results: []float64{7}}.Metric(func(x float64) float64 { return x })
	if s1.CI95() != 0 {
		t.Errorf("CI95({7}) = %v, want 0", s1.CI95())
	}
}

// TestRunTrialsDeterministic checks the driver is bit-identical across
// parallelism and that trial seeds are the documented pure function of
// (root seed, trial).
func TestRunTrialsDeterministic(t *testing.T) {
	run := func(par int) Trials[int64] {
		tr, err := RunTrials(RunContext{Seed: 42, Trials: 16, Parallelism: par},
			func(trial int, seed int64) (int64, error) { return seed, nil })
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("RunTrials differs across parallelism")
	}
	ctx := RunContext{Seed: 42}
	for i, seed := range serial.Results {
		if seed != ctx.TrialSeed(i) {
			t.Fatalf("trial %d seed = %d, want %d", i, seed, ctx.TrialSeed(i))
		}
	}
	if serial.N() != 16 || serial.First() != ctx.TrialSeed(0) {
		t.Fatalf("N/First = %d/%d", serial.N(), serial.First())
	}
}

// TestRunTrialsClampsTrials checks <=0 trials means one.
func TestRunTrialsClampsTrials(t *testing.T) {
	tr, err := RunTrials(RunContext{Seed: 1, Trials: 0},
		func(trial int, seed int64) (int, error) { return trial, nil })
	if err != nil || tr.N() != 1 {
		t.Fatalf("N = %d, err = %v; want 1 trial", tr.N(), err)
	}
}

func TestMetricVsPaper(t *testing.T) {
	m := Scalar("power", "W", 5.25).VsPaper(5.32)
	if m.Paper == nil || *m.Paper != 5.32 {
		t.Fatal("paper value not attached")
	}
	if m.Delta == nil || math.Abs(*m.Delta-(-0.07)) > 1e-12 {
		t.Fatalf("delta = %v", m.Delta)
	}
}

func TestRunContextDefaults(t *testing.T) {
	var ctx RunContext
	if ctx.EffectiveTrials() != 1 {
		t.Fatal("zero RunContext is not one trial")
	}
	ctx.Progressf("dropped silently") // nil sink must be safe
	if p := ctx.Params(); p.Trials != 1 || p.Seed != 0 {
		t.Fatalf("Params() = %+v", p)
	}
}
