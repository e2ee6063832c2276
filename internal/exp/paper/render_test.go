package paper

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"flexsfp/internal/exp"
)

var updateRender = flag.Bool("update-render", false, "rewrite the text goldens of the fleet experiments")

// TestFleetRenderGoldens pins the text report of the two experiments that
// drive FleetController, at the small sizes the other tests run them at:
// the JSON goldens cover their numbers, this covers the table an operator
// reads (head, every column, the foot line). Regenerate intentionally
// with: go test ./internal/exp/paper -run TestFleetRenderGoldens -update-render
func TestFleetRenderGoldens(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(exp.RunContext) (exp.Result, error)
		ctx  exp.RunContext
	}{
		{"fleet_ota", runFleetOTA, fleetTestCtx()},
		{"faults", runFaults, exp.RunContext{Seed: 5, Trials: 2, FaultRate: 0.5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			res, err := c.run(c.ctx)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Render()
			path := filepath.Join("testdata", "render_"+c.name+".txt")
			if *updateRender {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update-render): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s text report drifted from %s\ngot:\n%s\nwant:\n%s", c.name, path, got, want)
			}
		})
	}
}
