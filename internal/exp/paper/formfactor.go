package paper

import (
	"fmt"

	"flexsfp/internal/core"
	"flexsfp/internal/exp"
)

// ---------------------------------------------------------------------------
// §6 form-factor scaling: "can this approach be extended to higher-speed
// and higher-density form factors like QSFP-DD or OSFP while meeting
// power and thermal constraints?"

// FormFactorResult sweeps target rates × process nodes through the
// form-factor planner.
type FormFactorResult struct {
	Plans []core.FormFactorPlan
}

// formFactorSingle plans PPE configurations for 10/25/100/400 Gb/s on
// 28/16/7 nm silicon and reports which pluggable module each lands in.
// The planner is deterministic; the seed is accepted for the uniform
// RunContext contract but never consumed.
func formFactorSingle(ctx exp.RunContext) (FormFactorResult, error) {
	var res FormFactorResult
	rates := []float64{10, 25, 100, 400}
	nodes := []core.ProcessNode{core.Node28, core.Node16, core.Node7}
	for _, rate := range rates {
		for _, node := range nodes {
			res.Plans = append(res.Plans, core.PlanFormFactor(rate, node))
		}
	}
	return res, nil
}

// Render formats the sweep.
func (r FormFactorResult) Render() string {
	t := exp.NewTable("Target", "Process", "Config", "Capacity (Gb/s)", "Peak W", "Module")
	for _, p := range r.Plans {
		if !p.Feasible {
			t.Add(fmt.Sprintf("%.0fG", p.TargetGbps), p.Node.Name, "-", "-", "-", "infeasible")
			continue
		}
		t.Add(fmt.Sprintf("%.0fG", p.TargetGbps), p.Node.Name,
			fmt.Sprintf("%db×%d @ %.0fMHz", p.DatapathBits, p.Engines, float64(p.ClockHz)/1e6),
			fmt.Sprintf("%.1f", p.CapacityGbps),
			fmt.Sprintf("%.2f", p.PeakW),
			p.Module.Name)
	}
	return "Form-factor scaling (§6): target rate × silicon node → smallest viable module\n" + t.String()
}

func runFormFactor(ctx exp.RunContext) (exp.Result, error) {
	r, err := formFactorSingle(ctx)
	if err != nil {
		return nil, err
	}
	feasible := 0
	for _, p := range r.Plans {
		if p.Feasible {
			feasible++
		}
	}
	env := exp.Envelope{
		Name: "formfactor", Params: ctx.Params(), Detail: r,
		Metrics: []exp.Metric{
			exp.Scalar("plans", "", float64(len(r.Plans))),
			exp.Scalar("feasible", "", float64(feasible)),
		},
	}
	return exp.NewResult(env, r.Render), nil
}
