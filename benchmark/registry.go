package main

// The benchmark's registry: workloads and metrics by name. BENCHMARK.json at
// the repository root lists the same names (bench_test.go checks that), in
// the driver's schema; the fields it has no key for — which clock a metric
// reads, which workloads produce it, what it should move — live here and
// in README.md.

// Workload names are stable; later issues cite them.
const (
	wlNAT64   = "nat_64b"
	wlXDP64   = "xdp_64b"
	wlChurn   = "nat_churn_imix"
	wlOverlay = "overlay_2shard_imix"
	wlCtl     = "ctl_tcp_mixed"
	wlFleet   = "fleet_ota_100k"
)

type workloadDef struct {
	Name string
	Why  string
	Op   string // what one operation is
}

var workloadDefs = []workloadDef{
	{wlNAT64, "one NAT cable, 64 B at 10G line rate, 32 mapped flows: smallest frame and a hot working set, so per-frame cost of every datapath layer dominates", "offered simulated frame"},
	{wlXDP64, "same wiring running the canonical XDP codelet unoptimized: program-bound, the interpreter and the engine's drop path work and the table does nothing", "offered simulated frame"},
	{wlChurn, "NAT cable, IMIX at 0.95 line rate over 16384 Zipf flows while an in-process mgmt client rewrites one mapping every 10 sim-us: table writes beside reads, 512x the working set", "offered simulated frame"},
	{wlOverlay, "4-cable GRE/VXLAN mesh on 2 PDES shards, loss-free IMIX ring traffic, no-op SyncAll every 5 sim-ms: windows, portals, encap+decap and the overlay control path work", "offered simulated frame"},
	{wlCtl, "loopback TCP mgmt server and one closed-loop client: small table/stats RPCs with a 2 MiB signed-image push every 2000: codec, transport, agent, flash; no datapath", "RPC round trip"},
	{wlFleet, "FleetController.Rollout over 100000 simulated members on 64 shards under chaos, then the telemetry fold: controller waves, image verification, fold; no TCP, no netsim", "member-update attempt"},
}

var datapathWorkloads = []string{wlNAT64, wlXDP64, wlChurn, wlOverlay}
var cableWorkloads = []string{wlNAT64, wlXDP64, wlChurn}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Modeled metrics read the simulated clock or count model events; they
	// must repeat bit for bit and -compare requires them equal. All others
	// read the host.
	Modeled bool
	// Workloads that produce the metric; nil means all six.
	Workloads []string
	// Moves names what a per-layer metric should move (end-to-end metric
	// on workload), or for an end-to-end metric, how it is measured.
	Moves string
}

// endToEnd are the metrics a user of the simulator sees on every workload;
// each is never zero and carries the bound -compare and the driver apply.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "median over repeats of everything before the first timed op: world build plus warm-up"},
	{Name: "host_ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25, Moves: "median over repeats of ops / wall time of the timed window"},
	{Name: "host_ns_per_op_p50", Unit: "ns", Better: "lower", Bound: 0.25, Moves: "median over 1-sim-ms slices (datapath), 100-RPC slices (ctl) or repeats (fleet) of wall ns per op"},
	{Name: "cpu_ns_per_op", Unit: "ns", Better: "lower", Bound: 0.25, Moves: "median over repeats of rusage user+sys over the timed window / ops"},
}

// perLayer holds the end-to-end metrics that only some workloads produce
// or that can be zero (the driver's schema wants neither among its
// end_to_end), then one block per layer.
var perLayer = []metricDef{
	{Name: "failed_frac", Unit: "1", Better: "lower", Modeled: true, Moves: "check failures, unexpected RPC errors and bad fleet members / attempted; must be 0"},
	{Name: "allocs_per_op", Unit: "1", Better: "lower", Moves: "host.gc_cycles, then host_ops_per_s"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: "host.gc_cycles and peak_heap_mb"},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Moves: "HeapSys after the last repeat; per workload only in a single-workload run"},
	{Name: "modeled_mpps", Unit: "Mpps", Better: "higher", Modeled: true, Workloads: datapathWorkloads, Moves: "frames delivered per simulated second; the paper's throughput claim"},
	{Name: "modeled_loss_frac", Unit: "1", Better: "lower", Modeled: true, Workloads: datapathWorkloads, Moves: "modeled drops / offered in the timed window"},
	{Name: "modeled_latency_ns_p50", Unit: "sim_ns", Better: "lower", Modeled: true, Workloads: datapathWorkloads, Moves: "simulated ns from the generator sink's stamp to the output callback"},
	{Name: "modeled_latency_ns_p99", Unit: "sim_ns", Better: "lower", Modeled: true, Workloads: datapathWorkloads, Moves: "as p50"},
	{Name: "modeled_rollout_ms", Unit: "sim_ms", Better: "lower", Modeled: true, Workloads: []string{wlFleet}, Moves: "simulated ms per rollout, max per-shard wave cost"},
	{Name: "ota_push_ms_p50", Unit: "ms", Better: "lower", Workloads: []string{wlCtl}, Moves: "host ms per 2 MiB PushBitstream (begin + 65 chunks + commit)"},

	{Name: "trafficgen.emit_ns", Unit: "ns", Better: "lower", Workloads: datapathWorkloads, Moves: "host_ns_per_op_p50 on nat_64b, nat_churn_imix"},
	{Name: "netsim.event_ns", Unit: "ns", Better: "lower", Workloads: datapathWorkloads, Moves: "host_ns_per_op_p50 on nat_64b (about 4 events per frame)"},
	{Name: "netsim.events_per_frame", Unit: "1", Better: "lower", Modeled: true, Workloads: datapathWorkloads, Moves: "host time follows it when the model changes"},
	{Name: "netsim.events_per_s", Unit: "1/s", Better: "higher", Workloads: datapathWorkloads, Moves: "host_ops_per_s on the datapath workloads"},
	{Name: "netsim.link.send_ns", Unit: "ns", Better: "lower", Workloads: datapathWorkloads, Moves: "host_ns_per_op_p50 on the datapath workloads"},
	{Name: "netsim.link.queue_depth_max", Unit: "count", Better: "lower", Modeled: true, Workloads: cableWorkloads, Moves: "modeled_latency_ns_p99"},
	{Name: "netsim.link.drops", Unit: "count", Better: "lower", Modeled: true, Workloads: datapathWorkloads, Moves: "modeled_loss_frac"},
	{Name: "netsim.sharded.speedup_2", Unit: "1", Better: "higher", Workloads: []string{wlOverlay}, Moves: "host_ops_per_s on overlay_2shard_imix only"},
	{Name: "netsim.sharded.cpu_ratio_2", Unit: "1", Better: "lower", Workloads: []string{wlOverlay}, Moves: "cpu_ns_per_op on overlay_2shard_imix only"},
	{Name: "netsim.sharded.model_equal", Unit: "1", Better: "higher", Modeled: true, Workloads: []string{wlOverlay}, Moves: "1 when the 1-shard and 2-shard digests agree"},
	{Name: "core.rx_ns", Unit: "ns", Better: "lower", Workloads: datapathWorkloads, Moves: "host_ns_per_op_p50 on nat_64b"},
	{Name: "ppe.engine.submit_ns", Unit: "ns", Better: "lower", Workloads: datapathWorkloads, Moves: "host_ns_per_op_p50 on nat_64b"},
	{Name: "ppe.engine.queue_drops", Unit: "count", Better: "lower", Modeled: true, Workloads: datapathWorkloads, Moves: "modeled_loss_frac; allocs_per_op on xdp_64b (a dropped frame's buffer is not recycled)"},
	{Name: "ppe.engine.utilization", Unit: "1", Better: "higher", Modeled: true, Workloads: datapathWorkloads, Moves: "modeled_mpps"},
	{Name: "ppe.engine.queue_depth_max", Unit: "count", Better: "lower", Modeled: true, Workloads: cableWorkloads, Moves: "modeled_latency_ns_p99, modeled_loss_frac"},
	{Name: "ppe.table.lookup_ns", Unit: "ns", Better: "lower", Workloads: []string{wlNAT64, wlChurn}, Moves: "host_ns_per_op_p50 on nat_64b; nothing on xdp_64b"},
	{Name: "ppe.table.write_ns", Unit: "ns", Better: "lower", Workloads: []string{wlNAT64, wlChurn, wlCtl}, Moves: "host_ns_per_op_p50 on nat_churn_imix and ctl_tcp_mixed"},
	{Name: "ppe.table.hit_ratio", Unit: "1", Better: "higher", Modeled: true, Workloads: []string{wlNAT64, wlChurn}, Moves: "must be 1: every flow is mapped"},
	{Name: "ppe.table.generation_delta", Unit: "count", Better: "lower", Modeled: true, Workloads: []string{wlNAT64, wlChurn, wlOverlay}, Moves: "table writes in the timed window: 0 on nat_64b and overlay (no-op sync), 2 per churn tick"},
	{Name: "apps.nat.handler_ns", Unit: "ns", Better: "lower", Workloads: []string{wlNAT64, wlChurn}, Moves: "host_ns_per_op_p50 on the NAT workloads only"},
	{Name: "apps.xdp.handler_ns", Unit: "ns", Better: "lower", Workloads: []string{wlXDP64}, Moves: "host_ns_per_op_p50 on xdp_64b only"},
	{Name: "apps.mesh.encap_ns", Unit: "ns", Better: "lower", Workloads: []string{wlOverlay}, Moves: "host_ns_per_op_p50 on overlay_2shard_imix only"},
	{Name: "apps.mesh.decap_ns", Unit: "ns", Better: "lower", Workloads: []string{wlOverlay}, Moves: "host_ns_per_op_p50 on overlay_2shard_imix only"},
	{Name: "xdp.run_ns", Unit: "ns", Better: "lower", Workloads: []string{wlXDP64}, Moves: "host_ns_per_op_p50 on xdp_64b; modeled_mpps must not move (ProgCycles-bound)"},
	{Name: "xdp.ns_per_insn", Unit: "ns", Better: "lower", Workloads: []string{wlXDP64}, Moves: "as xdp.run_ns, per instruction in the program store"},
	{Name: "packet.view.parse_ns", Unit: "ns", Better: "lower", Workloads: cableWorkloads, Moves: "host_ns_per_op_p50 on all datapath workloads, most on nat_64b"},
	{Name: "packet.view.parse_ns_imix", Unit: "ns", Better: "lower", Workloads: []string{wlOverlay}, Moves: "host_ns_per_op_p50 on overlay_2shard_imix"},
	{Name: "overlay.sync_noop_us", Unit: "us", Better: "lower", Workloads: []string{wlOverlay}, Moves: "host_ns_per_op_p50 on overlay_2shard_imix"},
	{Name: "overlay.sync_churn_us", Unit: "us", Better: "lower", Workloads: []string{wlOverlay}, Moves: "failover cost; nothing on the steady workload"},
	{Name: "overlay.rendezvous.table_us", Unit: "us", Better: "lower", Workloads: []string{wlOverlay}, Moves: "overlay.sync_noop_us"},
	{Name: "mgmt.codec.encdec_ns", Unit: "ns", Better: "lower", Workloads: []string{wlChurn, wlCtl}, Moves: "host_ops_per_s on ctl_tcp_mixed; churn cost on nat_churn_imix"},
	{Name: "mgmt.agent.handle_ns", Unit: "ns", Better: "lower", Workloads: []string{wlChurn, wlCtl}, Moves: "ota_push_ms_p50 before host_ns_per_op_p50 on ctl_tcp_mixed"},
	{Name: "mgmt.client.direct_rpc_ns", Unit: "ns", Better: "lower", Workloads: []string{wlChurn, wlCtl}, Moves: "churn cost on nat_churn_imix"},
	{Name: "mgmt.tcp.rtt_us_p50", Unit: "us", Better: "lower", Workloads: []string{wlCtl}, Moves: "host_ns_per_op_p50 on ctl_tcp_mixed"},
	{Name: "mgmt.tcp.rpc_us_p99", Unit: "us", Better: "lower", Workloads: []string{wlCtl}, Moves: "diagnostic: host tail, moves 10-50 % run to run"},
	{Name: "mgmt.tcp.overhead_ns", Unit: "ns", Better: "lower", Workloads: []string{wlCtl}, Moves: "TCP p50 minus in-process p50: the syscall-bound share of a round trip"},
	{Name: "mgmt.client.retries", Unit: "count", Better: "lower", Modeled: true, Workloads: []string{wlCtl}, Moves: "failed_frac on ctl_tcp_mixed"},
	{Name: "mgmt.rpc_errors", Unit: "count", Better: "lower", Modeled: true, Workloads: []string{wlCtl}, Moves: "failed_frac on ctl_tcp_mixed"},
	{Name: "mgmt.xfer.chunk_us_p50", Unit: "us", Better: "lower", Workloads: []string{wlCtl}, Moves: "ota_push_ms_p50"},
	{Name: "mgmt.xfer.mib_per_s", Unit: "MiB/s", Better: "higher", Workloads: []string{wlCtl}, Moves: "ota_push_ms_p50"},
	{Name: "flash.store_ms_per_mib", Unit: "ms", Better: "lower", Workloads: []string{wlCtl}, Moves: "ota_push_ms_p50"},
	{Name: "flash.modeled_program_ms", Unit: "sim_ms", Better: "lower", Modeled: true, Workloads: []string{wlCtl}, Moves: "simulated flash time of one 2 MiB store"},
	{Name: "bitstream.verify_us_per_mib", Unit: "us", Better: "lower", Workloads: []string{wlCtl, wlFleet}, Moves: "ota_push_ms_p50 on ctl_tcp_mixed; host_ops_per_s on fleet_ota_100k"},
	{Name: "daemon.fleet.rollout_s", Unit: "s", Better: "lower", Workloads: []string{wlFleet}, Moves: "host_ops_per_s on fleet_ota_100k"},
	{Name: "daemon.fleet.waves", Unit: "count", Better: "lower", Modeled: true, Workloads: []string{wlFleet}, Moves: "modeled_rollout_ms"},
	{Name: "daemon.fleet.retries", Unit: "count", Better: "lower", Modeled: true, Workloads: []string{wlFleet}, Moves: "modeled_rollout_ms"},
	{Name: "daemon.fleet.rolled_back", Unit: "count", Better: "lower", Modeled: true, Workloads: []string{wlFleet}, Moves: "modeled_rollout_ms"},
	{Name: "daemon.fleet.remediated", Unit: "count", Better: "lower", Modeled: true, Workloads: []string{wlFleet}, Moves: "modeled_rollout_ms"},
	{Name: "daemon.fleet.push_ns", Unit: "ns", Better: "lower", Workloads: []string{wlFleet}, Moves: "host_ops_per_s on fleet_ota_100k"},
	{Name: "daemon.fleet.stats_ns", Unit: "ns", Better: "lower", Workloads: []string{wlFleet}, Moves: "host_ops_per_s on fleet_ota_100k"},
	{Name: "telemetry.fold.ns_per_member", Unit: "ns", Better: "lower", Workloads: []string{wlFleet}, Moves: "host_ns_per_op_p50 on fleet_ota_100k"},
	{Name: "build.module_ms", Unit: "ms", Better: "lower", Workloads: []string{wlNAT64, wlXDP64, wlChurn, wlOverlay, wlCtl}, Moves: "setup_s"},
	{Name: "daemon.simfleet.build_us_per_member", Unit: "us", Better: "lower", Workloads: []string{wlFleet}, Moves: "setup_s on fleet_ota_100k"},
	{Name: "host.slice_ns_per_op_p99", Unit: "ns", Better: "lower", Moves: "diagnostic: host tail of the per-op samples"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower", Moves: "where allocs_per_op meets host_ops_per_s"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "host.slice_ns_per_op_p99"},
	{Name: "host.calib_ns", Unit: "ns", Better: "lower", Moves: "drift guard: a fixed spin; flags noisy runs"},
	{Name: "trace.overhead_frac", Unit: "1", Better: "lower", Moves: "validity of the traced pass: traced / untraced ns per op - 1"},
	{Name: "attrib.isolated_sum_frac", Unit: "1", Better: "higher", Workloads: datapathWorkloads, Moves: "validity of the attribution: sum of isolated costs / untraced ns per op, expected 0.7-1.3"},
}

func (d metricDef) appliesTo(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// metricByName indexes both lists.
var metricByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}
