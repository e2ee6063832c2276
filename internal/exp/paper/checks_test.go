package paper

import (
	"strings"
	"testing"
)

// TestChecksRejectViolations hands each experiment's check one result
// that breaks one invariant, and expects an error naming that metric.
func TestChecksRejectViolations(t *testing.T) {
	twoFlows := []OverlayFlowRecovery{{Sender: 1, Recovered: true}, {Sender: 2}}
	for _, tc := range []struct {
		metric string
		check  func() error
	}{
		{"modules_bad_end", FleetOTAResult{BadEnd: 1}.check},
		{"modules_stale_version", FleetOTAResult{StaleEnd: 2}.check},
		{"frames_to_withdrawn_post", OverlayFailoverResult{FramesToWithdrawnPost: 3}.check},
		{"recovered_flows", OverlayFailoverResult{RecoveredFlows: 1, Flows: twoFlows}.check},
		{"depth_regressions", PipelineOptResult{DepthRegressions: 1}.check},
		{"verdict_mismatches", PipelineOptResult{Apps: []AppOptResult{{App: "nat"}, {App: "xdp", VerdictMismatches: 4}}}.check},
	} {
		err := tc.check()
		if err == nil || !strings.Contains(err.Error(), tc.metric) {
			t.Errorf("%s: check returned %v, want an error naming it", tc.metric, err)
		}
	}
}
