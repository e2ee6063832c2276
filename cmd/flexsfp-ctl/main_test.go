package main

// In-process end-to-end test of the daemon + ctl pair: boot flexsfpd on a
// loopback port via internal/daemon (the same code path cmd/flexsfpd
// wraps), then drive ctl subcommands — including the telemetry reads —
// through run() exactly as the CLI would.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flexsfp/internal/daemon"
	"flexsfp/internal/telemetry"
)

const natConfig = `{"direction":"edge-to-optical","mappings":[{"internal":"10.0.0.1","external":"203.0.113.1"}]}`

func startDaemon(t *testing.T, cfg daemon.Config) *daemon.Daemon {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Name == "" {
		cfg.Name = "e2e-0"
	}
	if cfg.App == "" {
		cfg.App = "nat"
		cfg.ConfigJSON = natConfig
	}
	if cfg.Shell == "" {
		cfg.Shell = "two-way-core"
	}
	d, err := daemon.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func ctl(t *testing.T, addr string, args ...string) string {
	t.Helper()
	var buf strings.Builder
	if err := run(append([]string{"-addr", addr}, args...), &buf); err != nil {
		t.Fatalf("ctl %v: %v", args, err)
	}
	return buf.String()
}

func TestEndToEnd(t *testing.T) {
	d := startDaemon(t, daemon.Config{
		DeviceID: 7, Telemetry: true, TraceEvery: 1,
		TrafficPPS: 1000, MetricsAddr: "127.0.0.1:0",
	})
	addr := d.Addr()

	out := ctl(t, addr, "ping")
	if !strings.Contains(out, `module "e2e-0" device=7`) {
		t.Fatalf("ping output: %q", out)
	}

	out = ctl(t, addr, "stats")
	if !strings.Contains(out, "app=nat") || !strings.Contains(out, "running=true") {
		t.Fatalf("stats output: %q", out)
	}

	// metrics must return the live snapshot as JSON with the traffic the
	// daemon pre-ran reflected in the PPE counters.
	out = ctl(t, addr, "metrics")
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("metrics output not JSON: %v\n%s", err, out)
	}
	framesIn, ok := snap.Counter("ppe.frames_in")
	if !ok || framesIn == 0 {
		t.Fatalf("ppe.frames_in = %d (ok=%v) in snapshot %s", framesIn, ok, out)
	}
	if _, ok := snap.Histogram("ppe.latency_ns"); !ok {
		t.Fatal("snapshot missing ppe.latency_ns")
	}
	if snap.TraceSampled == 0 {
		t.Fatal("snapshot shows no sampled traces")
	}

	// trace must dump buffered events, respecting -max.
	out = ctl(t, addr, "trace", "-max", "8")
	if !strings.Contains(out, "8 events") {
		t.Fatalf("trace output: %q", out)
	}
	if !strings.Contains(out, "gen") && !strings.Contains(out, "submit") {
		t.Fatalf("trace output has no recognizable stages: %q", out)
	}

	// The NAT app's table is programmable over the same session.
	out = ctl(t, addr, "slots")
	if !strings.Contains(out, "slot 1:") {
		t.Fatalf("slots output: %q", out)
	}

	// HTTP metrics endpoint serves the same snapshot.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", d.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d\n%s", resp.StatusCode, body)
	}
	var httpSnap telemetry.Snapshot
	if err := json.Unmarshal(body, &httpSnap); err != nil {
		t.Fatalf("HTTP metrics not JSON: %v\n%s", err, body)
	}
	if v, _ := httpSnap.Counter("ppe.frames_in"); v != framesIn {
		t.Fatalf("HTTP snapshot frames_in = %d, ctl saw %d", v, framesIn)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/traces", d.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var evs []telemetry.TraceEvent
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("HTTP traces not JSON: %v\n%s", err, body)
	}
	if len(evs) == 0 {
		t.Fatal("HTTP traces empty")
	}
}

func TestEndToEndTelemetryDisabled(t *testing.T) {
	d := startDaemon(t, daemon.Config{Telemetry: false})
	var buf strings.Builder
	err := run([]string{"-addr", d.Addr(), "metrics"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "telemetry not enabled") {
		t.Fatalf("metrics with telemetry off: err=%v out=%q", err, buf.String())
	}
	err = run([]string{"-addr", d.Addr(), "trace"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "tracing not enabled") {
		t.Fatalf("trace with telemetry off: err=%v", err)
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"bogus"}, &buf); err == nil {
		t.Fatal("expected error for unknown subcommand")
	}
}

// TestEndToEndSharded boots the daemon on the parallel simulation core:
// the module on shard 0, the traffic source on shard 1 behind a
// cross-shard 10G wire. The same management surface must work and the
// pre-run traffic must reach the PPE through the portal.
func TestEndToEndSharded(t *testing.T) {
	d := startDaemon(t, daemon.Config{
		DeviceID: 9, Telemetry: true, TraceEvery: 1,
		TrafficPPS: 1000, SimShards: 2,
	})
	addr := d.Addr()

	out := ctl(t, addr, "ping")
	if !strings.Contains(out, `module "e2e-0" device=9`) {
		t.Fatalf("ping output: %q", out)
	}
	out = ctl(t, addr, "stats")
	if !strings.Contains(out, "app=nat") || !strings.Contains(out, "running=true") {
		t.Fatalf("stats output: %q", out)
	}
	out = ctl(t, addr, "metrics")
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("metrics output not JSON: %v\n%s", err, out)
	}
	framesIn, ok := snap.Counter("ppe.frames_in")
	if !ok || framesIn == 0 {
		t.Fatalf("sharded daemon: ppe.frames_in = %d (ok=%v); traffic did not cross the portal", framesIn, ok)
	}
}

// TestDaemonWorldShardInvariant pins that the daemon builds one world at
// any shard count: the module, the traffic source and the wire between
// them are the same partitions whether they share one heap or not, so
// the management view of the pre-run traffic is byte-identical.
func TestDaemonWorldShardInvariant(t *testing.T) {
	var want string
	for _, shards := range []int{0, 1, 2, 4} {
		d := startDaemon(t, daemon.Config{
			DeviceID: 11, Telemetry: true, TraceEvery: 1,
			TrafficPPS: 1000, SimShards: shards,
		})
		got := ctl(t, d.Addr(), "stats") + ctl(t, d.Addr(), "trace", "-max", "64")
		if shards == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("SimShards=%d: output differs from SimShards=0\n got: %s\nwant: %s", shards, got, want)
		}
	}
}

// TestTernaryRules programs the acl app's masked rules table at runtime:
// a 13-byte 5-tuple rule denying 10.0.0.0/8 sources, a wrong-width rule
// the table rejects, and a clear.
func TestTernaryRules(t *testing.T) {
	d := startDaemon(t, daemon.Config{App: "acl", ConfigJSON: "{}"})
	addr := d.Addr()
	if out := ctl(t, addr, "ternary-add", "-table", "rules",
		"-value", "0a000000000000000000000000", "-mask", "ff000000000000000000000000",
		"-priority", "10", "-data", "01"); out != "ok\n" {
		t.Fatalf("ternary-add output: %q", out)
	}
	var buf strings.Builder
	err := run([]string{"-addr", addr, "ternary-add", "-table", "rules", "-value", "0a", "-mask", "ff"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "key") {
		t.Fatalf("1-byte rule into a 13-byte table: err=%v", err)
	}
	if out := ctl(t, addr, "ternary-clear", "-table", "rules"); out != "ok\n" {
		t.Fatalf("ternary-clear output: %q", out)
	}
}

// TestFleetCommandsFailOnAnyMember drives the fleet commands against two
// daemons: a push both modules reject fails the command and leaves both on
// their old app, and a good rollout moves both to the new one.
func TestFleetCommandsFailOnAnyMember(t *testing.T) {
	addrs := startDaemon(t, daemon.Config{Name: "fleet-a"}).Addr() + "," +
		startDaemon(t, daemon.Config{Name: "fleet-b"}).Addr()
	dir := t.TempDir()
	bad, good := filepath.Join(dir, "bad.fsfp"), filepath.Join(dir, "good.fsfp")
	ctl(t, "", "compile", "-app", "acl", "-config", "{}", "-key", "wrong-key", "-out", bad)
	ctl(t, "", "compile", "-app", "acl", "-config", "{}", "-out", good)

	var buf strings.Builder
	err := run([]string{"fleet-push", "-addrs", addrs, "-file", bad, "-reboot"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "2 of 2 modules failed") {
		t.Fatalf("wrong-key fleet-push: err=%v out=%q", err, buf.String())
	}
	if !strings.Contains(buf.String(), "0 ok, 2 failed of 2 modules") {
		t.Errorf("wrong-key fleet-push printed no summary: %q", buf.String())
	}
	if out := ctl(t, "", "fleet-ping", "-addrs", addrs); strings.Count(out, "app=nat") != 2 {
		t.Fatalf("after a rejected push: %q, want both modules still on nat", out)
	}

	ctl(t, "", "fleet-push", "-addrs", addrs, "-file", good, "-reboot")
	if out := ctl(t, "", "fleet-ping", "-addrs", addrs); strings.Count(out, "app=acl") != 2 {
		t.Fatalf("after a good rollout: %q, want both modules on acl", out)
	}
	if out := ctl(t, "", "fleet-stats", "-addrs", addrs); !strings.Contains(out, "2 ok, 0 failed of 2 modules") {
		t.Fatalf("fleet-stats: %q", out)
	}
}

// TestFleetDeadMemberFailsOnlyItself: a module whose port refuses the
// connection is that module's failure. The live module is still served,
// both get a line, the summary counts them, and the command fails. An
// address listed twice is one module.
func TestFleetDeadMemberFailsOnlyItself(t *testing.T) {
	live := startDaemon(t, daemon.Config{Name: "fleet-live"}).Addr()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	for _, c := range []struct{ cmd, addrs, line string }{
		{"fleet-ping", live + "," + dead, live + `: module "fleet-live"`},
		{"fleet-stats", dead + "," + live + "," + dead, live + ": app=nat"},
	} {
		var buf strings.Builder
		err := run([]string{c.cmd, "-addrs", c.addrs}, &buf)
		out := buf.String()
		if err == nil || !strings.Contains(err.Error(), "1 of 2 modules failed") {
			t.Errorf("%s with a dead member: err=%v, want 1 of 2 modules failed", c.cmd, err)
		}
		for _, want := range []string{c.line, dead + ": FAILED:", "1 ok, 1 failed of 2 modules"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s with a dead member printed %q, want a line with %q", c.cmd, out, want)
			}
		}
	}
}

// TestSilentModuleTimesOut points ctl at a listener that accepts and
// reads requests but never answers: the single-module and the fleet
// commands must fail on the request deadline rather than block.
func TestSilentModuleTimesOut(t *testing.T) {
	defer func(d time.Duration) { requestTimeout = d }(requestTimeout)
	requestTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
	addr := ln.Addr().String()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-addr", addr, "ping"}, "timeout"},
		{[]string{"fleet-ping", "-addrs", addr}, "0 ok, 1 failed"},
	} {
		done := make(chan string, 1)
		go func() {
			var buf strings.Builder
			err := run(c.args, &buf)
			done <- fmt.Sprintf("err=%v out=%q", err, buf.String())
		}()
		select {
		case got := <-done:
			if !strings.Contains(got, c.want) {
				t.Errorf("%v against a silent module: %s, want %q", c.args, got, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v against a silent module still blocked after 5 s", c.args)
		}
	}
}
