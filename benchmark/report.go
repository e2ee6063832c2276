package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

const resultSchema = "flexsfp-benchmark/1"

// driftTolerance is how far a repeat's calibration spin may sit from the
// run's median before the repeat is dropped.
const driftTolerance = 0.10

// minKept is the least number of repeats of a kind the drift guard leaves.
const minKept = 3

// hostInfo is the host descriptor written into every result.
type hostInfo struct {
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
	GitCommit  string `json:"git_commit"`
}

func describeHost() hostInfo {
	h := hostInfo{
		Cores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", LoadStart: loadAvg(), GitCommit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" is expected there.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

func (h *hostInfo) finish() { h.LoadEnd = loadAvg() }

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(data))[:3], " ")
}

// metricValue is one reported metric. N counts the samples behind Value;
// Q1/Q3 are their quartiles (equal to Value for a single sample).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"` // end_to_end or per_layer
	Clock string  `json:"clock"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Bound float64 `json:"bound,omitempty"`
	// Samples are the per-repeat values of an end-to-end metric, in run order.
	Samples []float64 `json:"samples,omitempty"`
}

type workloadResult struct {
	Name           string                 `json:"name"`
	Work           map[string]float64     `json:"work"`
	Repeats        int                    `json:"repeats"`
	TracedRepeats  int                    `json:"traced_repeats"`
	DroppedRepeats int                    `json:"dropped_repeats"`
	Unresolved     bool                   `json:"unresolved"`
	Attempted      uint64                 `json:"attempted"`
	Failed         uint64                 `json:"failed"`
	Failures       []string               `json:"failures,omitempty"`
	Digest         string                 `json:"digest"`
	Metrics        map[string]metricValue `json:"metrics"`
	SpanStats      []spanStat             `json:"span_stats,omitempty"`
	Spans          []span                 `json:"spans,omitempty"`
}

type report struct {
	Schema    string           `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Quick     bool             `json:"quick"`
	Seconds   float64          `json:"seconds"`
	Trace     string           `json:"trace"`
	Correct   bool             `json:"correct"`
	Workloads []workloadResult `json:"workloads"`
}

// keepSteady drops the repeats whose calibration spin is more than the
// tolerance off the run's median.
func keepSteady(rs []repeat, calib float64) (kept []repeat, dropped int) {
	for _, r := range rs {
		if math.Abs(r.calibNs-calib) > driftTolerance*calib {
			dropped++
			continue
		}
		kept = append(kept, r)
	}
	return kept, dropped
}

func perRepeat(rs []repeat, f func(repeat) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// aggregate turns a workload's repeats, spans and isolated drivers into
// its reported metrics.
func aggregate(s *wlState, calib float64, layerPass bool) workloadResult {
	wr := workloadResult{Name: s.name, Work: s.w.work(), Metrics: map[string]metricValue{}}
	put := func(name string, samples []float64) {
		def, ok := metricByName[name]
		if !ok || !def.appliesTo(s.name) || len(samples) == 0 {
			return
		}
		v := median(samples)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return // nothing measurable (a repeat that never ran); the checks say why
		}
		mv := metricValue{
			Value: v, Unit: def.Unit, Kind: "per_layer", Clock: "host",
			N: len(samples), Q1: quantile(samples, 0.25), Q3: quantile(samples, 0.75), Bound: def.Bound,
		}
		if isEndToEnd(name) {
			mv.Kind, mv.Samples = "end_to_end", samples
		}
		if def.Modeled {
			mv.Clock = "modeled"
		}
		wr.Metrics[name] = mv
	}
	put1 := func(name string, v float64) { put(name, []float64{v}) }

	// Correctness first, over every repeat run, dropped or not.
	all := append(append([]repeat(nil), s.untraced...), s.traced...)
	for _, r := range all {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		wr.Failures = append(wr.Failures, r.failures...)
	}
	if len(all) > 0 {
		wr.Digest = all[0].digest
		wr.Attempted++
		for i, r := range all {
			if r.digest != wr.Digest {
				wr.Failed++
				wr.Failures = append(wr.Failures, fmt.Sprintf("modeled digest of repeat %d is %s, repeat 0 gave %s", i, r.digest, wr.Digest))
				break
			}
		}
	}
	wr.Attempted += s.layers.attempted
	wr.Failed += s.layers.failed
	wr.Failures = append(wr.Failures, s.layers.failures...)
	if len(wr.Failures) > 8 {
		wr.Failures = wr.Failures[:8]
	}

	untraced, du := keepSteady(s.untraced, calib)
	traced, dt := keepSteady(s.traced, calib)
	if len(untraced) < minKept || len(traced) < min(minKept, len(s.traced)) {
		// Too little would be left to report from (or the run is too short
		// to have a median worth the name): report from every repeat.
		untraced, traced = s.untraced, s.traced
	}
	wr.Repeats, wr.TracedRepeats = len(untraced), len(traced)
	wr.DroppedRepeats = len(s.untraced) + len(s.traced) - wr.Repeats - wr.TracedRepeats
	wr.Unresolved = du+dt > 1 || len(untraced) == 0
	if len(untraced) == 0 {
		return wr
	}

	nsPerOp := func(r repeat) float64 { return float64(r.win.wallNs) / float64(r.win.ops) }
	var pooled []float64
	for _, r := range untraced {
		pooled = append(pooled, r.perOpNs...)
	}
	put("setup_s", perRepeat(untraced, func(r repeat) float64 { return r.setupS }))
	put("host_ops_per_s", perRepeat(untraced, func(r repeat) float64 { return float64(r.win.ops) / (float64(r.win.wallNs) * 1e-9) }))
	put("cpu_ns_per_op", perRepeat(untraced, func(r repeat) float64 { return float64(r.win.cpuNs) / float64(r.win.ops) }))
	// The p50 is over every slice of every repeat; its quartiles are of
	// the per-repeat medians, which is the spread -compare needs.
	p50 := perRepeat(untraced, func(r repeat) float64 { return median(r.perOpNs) })
	put("host_ns_per_op_p50", p50)
	if mv, ok := wr.Metrics["host_ns_per_op_p50"]; ok {
		mv.Value, mv.N = median(pooled), len(pooled)
		wr.Metrics["host_ns_per_op_p50"] = mv
	}

	put("allocs_per_op", perRepeat(untraced, func(r repeat) float64 { return float64(r.win.allocs) / float64(r.win.ops) }))
	put("alloc_bytes_per_op", perRepeat(untraced, func(r repeat) float64 { return float64(r.win.allocBytes) / float64(r.win.ops) }))
	put1("peak_heap_mb", untraced[len(untraced)-1].win.heapSysMB)
	put1("failed_frac", float64(wr.Failed)/float64(max(wr.Attempted, 1)))
	put1("host.slice_ns_per_op_p99", quantile(pooled, 0.99))
	put("host.gc_cycles", perRepeat(untraced, func(r repeat) float64 { return float64(r.win.gcCycles) }))
	put("host.gc_pause_ms", perRepeat(untraced, func(r repeat) float64 { return float64(r.win.gcPauseNs) / 1e6 }))
	put("host.calib_ns", perRepeat(untraced, func(r repeat) float64 { return r.calibNs }))
	for name, v := range untraced[0].exact {
		put1(name, v)
	}
	samples := map[string][]float64{}
	for _, r := range untraced {
		for name, xs := range r.samples {
			samples[name] = append(samples[name], xs...)
		}
	}
	for name, xs := range samples {
		put(name, xs)
	}
	if !layerPass || len(traced) == 0 {
		return wr
	}

	// Per-layer pass: spans, isolated drivers, and what combines them.
	for name, v := range traced[0].exact {
		if _, have := wr.Metrics[name]; !have {
			put1(name, v) // instruments only the traced repeats attach
		}
	}
	untracedNs := median(perRepeat(untraced, nsPerOp))
	put1("trace.overhead_frac", median(perRepeat(traced, nsPerOp))/untracedNs-1)

	stats := s.tr.summarize(timerOverheadNs())
	wr.SpanStats = sortedStats(stats)
	wr.Spans = s.tr.first(maxKeptSpans)
	spanP50 := func(name uint16) float64 { return stats[spanNames[name]].P50Ns }
	iso := s.layers.values
	for name, v := range iso {
		put1(name, v)
	}
	switch s.name {
	case wlNAT64, wlXDP64, wlChurn, wlOverlay:
		send := spanP50(spLinkSend)
		rx := spanP50(spCoreRx)
		admit := iso["ppe.engine.admit_ns"]
		put1("netsim.link.send_ns", send)
		put1("core.rx_ns", math.Max(0, rx-admit))

		// Sum of the isolated per-frame costs: the generator (with its
		// own event), the wire's Send, the module's ingress span (shell
		// plus engine admission), every further event at the scheduler's
		// price, what the engine's completion costs beyond a bare event,
		// and the handler on the frames that reach it. The overlay's
		// frames cross two cables.
		epf := untraced[0].exact["netsim.events_per_frame"]
		loss := untraced[0].exact["modeled_loss_frac"]
		event := iso["netsim.event_ns"]
		engineBody := math.Max(0, iso["ppe.engine.submit_ns"]-admit-event)
		handlers := iso["apps.nat.handler_ns"] + iso["apps.xdp.handler_ns"] + iso["apps.mesh.encap_ns"] + iso["apps.mesh.decap_ns"]
		cables := 1.0
		if s.name == wlOverlay {
			cables = 2
		}
		sum := iso["trafficgen.emit_ns"] + cables*(send+rx+engineBody) + (epf-1)*event + (1-loss)*handlers
		put1("attrib.isolated_sum_frac", sum/untracedNs)
	case wlCtl:
		rtt := spanP50(spTCPRPC)
		put1("mgmt.tcp.rtt_us_p50", rtt/1e3)
		put1("mgmt.tcp.rpc_us_p99", stats[spanNames[spTCPRPC]].P99Ns/1e3)
		put1("mgmt.tcp.overhead_ns", rtt-iso["mgmt.client.direct_rpc_ns"])
		put1("mgmt.xfer.chunk_us_p50", spanP50(spXferRPC)/1e3)
		if push := wr.Metrics["ota_push_ms_p50"].Value; push > 0 {
			put1("mgmt.xfer.mib_per_s", float64(otaPayloadBytes)/(1<<20)/(push/1e3))
		}
	case wlFleet:
		put1("daemon.fleet.push_ns", spanP50(spFleetPush))
		put1("daemon.fleet.stats_ns", spanP50(spFleetStats))
	}
	return wr
}

// printReport writes the human-readable table: per workload, every metric
// by name with unit, sample count and bound.
func printReport(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "host: %d cores, GOMAXPROCS %d, %s, %s, load %s -> %s, commit %s, seed %d\n",
		h.Cores, h.GoMaxProcs, h.GoVersion, h.CPUModel, h.LoadStart, h.LoadEnd, h.GitCommit, rep.Seed)
	for _, wr := range rep.Workloads {
		status := "ok"
		if wr.Failed > 0 {
			status = "FAILED"
		} else if wr.Unresolved {
			status = "unresolved (host drifted)"
		}
		fmt.Fprintf(w, "\n%s: %s; %d untraced + %d traced repeats, %d dropped; checks %d/%d failed; digest %s\n",
			wr.Name, status, wr.Repeats, wr.TracedRepeats, wr.DroppedRepeats, wr.Failed, wr.Attempted, wr.Digest)
		fmt.Fprintf(w, "  work: %s\n", formatWork(wr.Work))
		for _, d := range workloadDefs {
			if d.Name == wr.Name {
				fmt.Fprintf(w, "  op: one %s\n", d.Op)
			}
		}
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAIL %s\n", f)
		}
		fmt.Fprintf(w, "  %-36s %16s %-6s %-8s %7s  %s\n", "metric", "value", "unit", "clock", "n", "bound")
		print := func(defs []metricDef) {
			for _, d := range defs {
				mv, ok := wr.Metrics[d.Name]
				if !ok {
					continue
				}
				bound := ""
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", d.Bound*100)
				} else if d.Modeled {
					bound = "exact"
				}
				fmt.Fprintf(w, "  %-36s %16.6g %-6s %-8s %7d  %s\n", d.Name, mv.Value, mv.Unit, mv.Clock, mv.N, bound)
			}
		}
		print(endToEnd)
		print(perLayer)
	}
	fmt.Fprintf(w, "\ncorrect: %v\n", rep.Correct)
}

func formatWork(work map[string]float64) string {
	var parts []string
	for _, k := range sortedKeys(work) {
		parts = append(parts, fmt.Sprintf("%s=%g", k, work[k]))
	}
	return strings.Join(parts, " ")
}

// contractLine is the driver's result object: every end-to-end metric with
// -trace 0, every per-layer metric with -trace 1. A per-layer metric this
// workload's layers do not produce reads 0 there (the layer did no work);
// the table and the -out file leave such a metric out instead.
func contractLine(wr workloadResult, trace string) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if trace == "1" {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{Value: wr.Metrics[d.Name].Value, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, max(wr.Attempted, 1), wr.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	return string(line)
}
