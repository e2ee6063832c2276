package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"flexsfp/internal/telemetry"
)

func startTestDaemon(t *testing.T) *Daemon {
	t.Helper()
	d, err := Start(Config{
		Listen: "127.0.0.1:0", Name: "close-test", App: "acl",
		Shell: "two-way-core", Telemetry: true, MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCloseShutsDownMetricsServer: Close must gracefully stop the
// metrics HTTP server — the serve goroutine exits (no leak), and the
// port stops accepting connections.
func TestCloseShutsDownMetricsServer(t *testing.T) {
	before := runtime.NumGoroutine()
	d := startTestDaemon(t)

	addr := d.MetricsAddr()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("metrics before close: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()

	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("metrics port still serving after Close")
	}
	http.DefaultClient.CloseIdleConnections()

	// The serve goroutine (and the mgmt accept loop) must be gone. Other
	// runtime goroutines wind down asynchronously, so poll back to the
	// pre-Start baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before Start, %d after Close — serve loop leaked",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseWithoutMetrics: a daemon without the HTTP endpoint closes
// cleanly through the same path.
func TestCloseWithoutMetrics(t *testing.T) {
	d, err := Start(Config{
		Listen: "127.0.0.1:0", Name: "close-test-2", App: "acl",
		Shell: "two-way-core",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestMetricsReportWindowLoop: a daemon whose world runs on two shards
// exports the window loop's counters as pdes.* gauges, and the traffic
// pre-run shows up in them.
func TestMetricsReportWindowLoop(t *testing.T) {
	d, err := Start(Config{
		Listen: "127.0.0.1:0", Name: "pdes-test", App: "acl", Shell: "two-way-core",
		Telemetry: true, MetricsAddr: "127.0.0.1:0",
		TrafficPPS: 1000, SimShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["pdes.windows"] <= 0 || gauges["pdes.portal_msgs"] <= 0 {
		t.Fatalf("pdes.windows = %v, pdes.portal_msgs = %v: the window loop's gauges are missing or idle",
			gauges["pdes.windows"], gauges["pdes.portal_msgs"])
	}
}
