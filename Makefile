GO ?= go

# Packages with real concurrency (fleet fan-out, TCP serving, parallel
# trial runner, the registry-driven experiment harness, fault-injected
# transports, the lock-free datapath tables, the telemetry record paths):
# the race pass focuses here so `make check` stays fast; `make race-all`
# still sweeps everything.
RACE_PKGS = ./internal/mgmt ./internal/netsim ./internal/runner ./internal/exp/... ./internal/faults ./internal/ppe ./internal/reliability ./internal/telemetry ./internal/daemon ./internal/opt/... ./internal/xdp ./internal/trafficgen ./internal/packet ./internal/apps ./internal/overlay

# Packages holding the per-frame hot paths; bench-json and the smoke run
# cover exactly these plus the root end-to-end suites.
HOT_PKGS = ./internal/ppe ./internal/netsim ./internal/trafficgen .

.PHONY: all build test race race-all bench bench-json bench-list smoke shard-smoke fuzz-smoke telemetry-smoke fleet-smoke fleet-scale opt-smoke catalog-smoke overlay-smoke vet fmt check examples reports clean

all: build test

# Everything CI cares about: compile, unit tests, race detector, vet,
# the experiment-registry smoke check, the hot-path smoke run
# (alloc-regression tests and a -benchtime=1x pass over every benchmark),
# the shard-determinism smoke, a short pass over every native fuzz
# target, and a race-mode run of the default experiment suite with
# telemetry attached.
check: build test race vet bench-list smoke shard-smoke fuzz-smoke telemetry-smoke fleet-smoke opt-smoke catalog-smoke overlay-smoke

build:
	$(GO) build ./...

# The runner's first-error contract depends on goroutine scheduling (which
# worker holds the lowest failing trial when a higher one cancels the
# run), so one pass proves little: repeat it.
test:
	$(GO) test ./...
	$(GO) test -count=20 ./internal/runner

race:
	$(GO) test -race $(RACE_PKGS)

race-all:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable hot-path numbers (the blob tracked in
# docs/BENCH_PR*.json): every benchmark in the hot-path packages, one
# sample each, as JSON on stdout.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -count=1 $(HOT_PKGS) | $(GO) run ./tools/benchjson

# Fast hot-path gate: zero-alloc regression tests plus one iteration of
# every benchmark (catches bit-rotted benches and alloc creep without
# paying for full measurement runs).
smoke:
	$(GO) test -run 'ZeroAlloc' ./internal/ppe ./internal/netsim ./internal/telemetry
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem $(HOT_PKGS) > /dev/null

# Shard-determinism gate: the netsim experiments must emit byte-identical
# JSON whether they run on one event heap or four (the Shards knob is
# execution placement, not a model parameter). Only wall-clock lines may
# differ. The four-shard side runs on one P, so every barrier wait parks:
# the window loop's oversubscribed regime is under the same gate.
shard-smoke:
	@$(GO) run ./cmd/flexsfp-bench -run linerate,reliability -json -shards 1 | grep -v '"wall_ms"' > /tmp/flexsfp-shards1.json; \
	GOMAXPROCS=1 $(GO) run ./cmd/flexsfp-bench -run linerate,reliability -json -shards 4 | grep -v '"wall_ms"' > /tmp/flexsfp-shards4.json; \
	diff /tmp/flexsfp-shards1.json /tmp/flexsfp-shards4.json > /dev/null || { echo "shard-smoke: -shards 1 and -shards 4 JSON differ" >&2; exit 1; }; \
	echo "shard-smoke: -shards 1 == -shards 4"

# Short mutation pass over every native fuzz target (go fuzz accepts one
# target per invocation). Longer runs: go test -fuzz=<target> <pkg>.
fuzz-smoke:
	$(GO) test -fuzz 'FuzzDecodeMessage' -fuzztime 10s ./internal/mgmt > /dev/null
	$(GO) test -fuzz 'FuzzAgentHandle' -fuzztime 10s ./internal/mgmt > /dev/null
	$(GO) test -fuzz 'FuzzPacketDecode' -fuzztime 10s ./internal/packet > /dev/null
	$(GO) test -fuzz 'FuzzParserDecodeLayers' -fuzztime 10s ./internal/packet > /dev/null
	$(GO) test -fuzz 'FuzzViewVsDecode' -fuzztime 10s ./internal/packet > /dev/null
	$(GO) test -fuzz 'FuzzSumBytes' -fuzztime 10s ./internal/packet > /dev/null
	$(GO) test -fuzz 'FuzzXDPVerify' -fuzztime 10s ./internal/xdp > /dev/null
	$(GO) test -fuzz 'FuzzXDPRun' -fuzztime 10s ./internal/xdp > /dev/null
	$(GO) test -fuzz 'FuzzOptimizeEquivalence' -fuzztime 10s ./internal/opt > /dev/null
	$(GO) test -fuzz 'FuzzOverlayDecap' -fuzztime 10s ./internal/apps > /dev/null
	$(GO) test -fuzz 'FuzzCheckVsDecode' -fuzztime 10s ./internal/bitstream > /dev/null

# Race-mode run of the default experiment suite with instrumentation
# attached: the parallel trial runner records into shared registries, so
# this catches telemetry races the unit tests' synthetic load might miss.
telemetry-smoke:
	$(GO) run -race ./cmd/flexsfp-bench -telemetry -run linerate,power -json > /dev/null

# Fleet-controller gate: a sharded OTA rollout with the full chaos model
# on must leave zero modules on a tampered/unbootable image or wedged on
# the target (the bounded-blast-radius invariant), and zero running a
# stale version from the target slot (a re-signed downgrade counted as
# updated) — both counted from member ground truth in the fleet_ota
# detail payload. fleet-smoke is the small run `check` makes; fleet-scale
# is the paper's upper deployment scale, one million simulated cables
# (≈17 s and 1.6 GB on the 2-vCPU reference host, so not in `check`).
# Both print the run's wall time.
fleet-smoke: FLEET_ARGS = -fleet 2000 -fleet-shards 8
fleet-scale: FLEET_ARGS = -fleet 1000000
fleet-smoke fleet-scale:
	@out="$$($(GO) run ./cmd/flexsfp-bench -run fleet_ota -json $(FLEET_ARGS))"; \
	printf '%s\n' "$$out" | grep -q '"modules_bad_end": 0' || { echo "$@: modules left on a bad image" >&2; printf '%s\n' "$$out" | grep 'modules_bad_end' >&2; exit 1; }; \
	printf '%s\n' "$$out" | grep -q '"modules_stale_version": 0' || { echo "$@: updated modules on a stale version" >&2; printf '%s\n' "$$out" | grep 'modules_stale_version' >&2; exit 1; }; \
	echo "$@ ($(FLEET_ARGS)): every module updated under chaos or restored, 0 left on a bad image or a stale version,$$(printf '%s\n' "$$out" | grep -m1 '"wall_ms"' | tr -d ',')"

# Optimizer gate: compile + optimize every catalog app and fail if any
# depth regresses or any verdict diverges from the unoptimized build
# (the pipeline_opt experiment measures both on every run).
opt-smoke:
	@out="$$($(GO) run ./cmd/flexsfp-bench -run pipeline_opt -json)"; \
	printf '%s\n' "$$out" | grep -q '"name": "depth_regressions"' || { echo "opt-smoke: depth_regressions metric missing" >&2; exit 1; }; \
	printf '%s\n' "$$out" | grep -A1 '"name": "depth_regressions"' | grep -q '"mean": 0' || { echo "opt-smoke: optimizer increased a pipeline depth" >&2; exit 1; }; \
	printf '%s\n' "$$out" | grep -A1 '"name": "verdict_mismatches"' | grep -q '"mean": 0' || { echo "opt-smoke: optimized verdicts diverged" >&2; exit 1; }; \
	echo "opt-smoke: all apps optimize with no depth regressions and matching verdicts"

# App-catalog gate: every registry app (plus the two-way shell) must fit
# the MPF200T, and the edge-protocol trio (arpguard, dhcpsnoop, dnsblock)
# must hold line rate on its matched traffic profile. The xdp interpreter
# is program-bound (≈10.5 Mpps < 64B line rate), so the gate checks
# fits_all + new_apps_line_rate, not line rate over every app.
catalog-smoke:
	@out="$$($(GO) run ./cmd/flexsfp-bench -run catalog -json)"; \
	printf '%s\n' "$$out" | grep -A2 '"name": "fits_all"' | grep -q '"mean": 1' || { echo "catalog-smoke: an app does not fit the MPF200T" >&2; exit 1; }; \
	printf '%s\n' "$$out" | grep -A2 '"name": "new_apps_line_rate"' | grep -q '"mean": 1' || { echo "catalog-smoke: a new app dropped frames on its matched profile" >&2; exit 1; }; \
	echo "catalog-smoke: all apps fit, edge-protocol trio holds line rate"

# Overlay-mesh gate: both overlay experiments must be shard-count
# invariant (byte-identical JSON at -shards 1 and 4, only wall-clock
# lines may differ), and the failover chaos run must deliver zero frames
# to the withdrawn peer after convergence with every affected flow
# re-converged.
overlay-smoke:
	@$(GO) run ./cmd/flexsfp-bench -run overlay_linerate,overlay_failover -json -shards 1 | grep -v '"wall_ms"' > /tmp/flexsfp-overlay1.json; \
	GOMAXPROCS=1 $(GO) run ./cmd/flexsfp-bench -run overlay_linerate,overlay_failover -json -shards 4 | grep -v '"wall_ms"' > /tmp/flexsfp-overlay4.json; \
	diff /tmp/flexsfp-overlay1.json /tmp/flexsfp-overlay4.json > /dev/null || { echo "overlay-smoke: -shards 1 and -shards 4 JSON differ" >&2; exit 1; }; \
	grep -A1 '"name": "frames_to_withdrawn_post"' /tmp/flexsfp-overlay1.json | grep -q '"mean": 0' || { echo "overlay-smoke: frames delivered to the withdrawn peer" >&2; exit 1; }; \
	grep -A1 '"name": "recovered_fraction"' /tmp/flexsfp-overlay1.json | grep -q '"mean": 1' || { echo "overlay-smoke: a flow failed to re-converge" >&2; exit 1; }; \
	echo "overlay-smoke: shard-invariant, 0 frames to withdrawn peer, all flows re-converged"

# Registry smoke check: the bench binary must enumerate a non-empty
# experiment catalog with unique names (a broken registration init or a
# duplicate ID fails the build before anything tries to -run it).
bench-list:
	@out="$$($(GO) run ./cmd/flexsfp-bench -list)"; \
	test -n "$$out" || { echo "bench-list: registry is empty" >&2; exit 1; }; \
	dups="$$(printf '%s\n' "$$out" | awk '{print $$1}' | sort | uniq -d)"; \
	test -z "$$dups" || { echo "bench-list: duplicate experiment names: $$dups" >&2; exit 1; }; \
	echo "bench-list: $$(printf '%s\n' "$$out" | wc -l) experiments registered"

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Run every example scenario once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/legacy-retrofit
	$(GO) run ./examples/telemetry
	$(GO) run ./examples/loadbalancer
	$(GO) run ./examples/ota-update
	$(GO) run ./examples/xdp-offload

# Regenerate the paper-vs-model reports.
reports:
	$(GO) run ./cmd/flexsfp-bench

clean:
	$(GO) clean ./...
