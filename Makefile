GO ?= go

# Packages with real concurrency (fleet fan-out, TCP serving, parallel
# trial runner, the registry-driven experiment harness, fault-injected
# transports, the lock-free datapath tables, the telemetry record paths,
# the HMAC state bitstream.Verify shares across shard workers, the ctl
# fleet commands' TCP fan-out over live daemons):
# the race pass focuses here so `make check` stays fast; `make race-all`
# still sweeps everything.
RACE_PKGS = ./internal/mgmt ./internal/netsim ./internal/runner ./internal/exp/... ./internal/faults ./internal/ppe ./internal/reliability ./internal/telemetry ./internal/daemon ./internal/opt/... ./internal/xdp ./internal/trafficgen ./internal/packet ./internal/apps ./internal/overlay ./internal/bitstream ./cmd/flexsfp-ctl

# Packages holding the per-frame hot paths and their microbenchmarks;
# the smoke run covers exactly these. End-to-end performance is the
# ledger's job: go run ./benchmark.
HOT_PKGS = ./internal/ppe ./internal/netsim ./internal/trafficgen ./internal/apps ./internal/packet

.PHONY: all build test race race-all bench smoke fuzz-smoke fleet-scale vet fmt check reports clean

all: build test

# Everything CI cares about: compile, unit tests (which include the
# zero-alloc regression tests, the experiments' invariants and the
# examples' claims: each returns an error when one is violated), race
# detector, vet, a -benchtime=1x pass over every hot-path benchmark, and
# a short pass over every native fuzz target.
check: build test race vet smoke fuzz-smoke

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

# Fast hot-path gate: one iteration of every benchmark (catches
# bit-rotted benches without paying for full measurement runs).
smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem $(HOT_PKGS) > /dev/null

# Short mutation pass over every native fuzz target (go fuzz accepts one
# target per invocation). Longer runs: go test -fuzz=<target> <pkg>.
fuzz-smoke:
	$(GO) test -fuzz 'FuzzDecodeMessage' -fuzztime 10s ./internal/mgmt > /dev/null
	$(GO) test -fuzz 'FuzzAgentHandle' -fuzztime 10s ./internal/mgmt > /dev/null
	$(GO) test -fuzz 'FuzzReadFrame' -fuzztime 10s ./internal/mgmt > /dev/null
	$(GO) test -fuzz 'FuzzPacketDecode' -fuzztime 10s ./internal/packet > /dev/null
	$(GO) test -fuzz 'FuzzViewVsDecode' -fuzztime 10s ./internal/packet > /dev/null
	$(GO) test -fuzz 'FuzzSumBytes' -fuzztime 10s ./internal/packet > /dev/null
	$(GO) test -fuzz 'FuzzXDPVerify' -fuzztime 10s ./internal/xdp > /dev/null
	$(GO) test -fuzz 'FuzzXDPRun' -fuzztime 10s ./internal/xdp > /dev/null
	$(GO) test -fuzz 'FuzzRunVsRef' -fuzztime 10s ./internal/xdp > /dev/null
	$(GO) test -fuzz 'FuzzOptimizeEquivalence' -fuzztime 10s ./internal/opt > /dev/null
	$(GO) test -fuzz 'FuzzOverlayDecap' -fuzztime 10s ./internal/apps > /dev/null
	$(GO) test -fuzz 'FuzzEngineVsRef' -fuzztime 10s ./internal/ppe > /dev/null
	$(GO) test -fuzz 'FuzzCheckVsDecode' -fuzztime 10s ./internal/bitstream > /dev/null
	$(GO) test -fuzz 'FuzzVerifyVsHMAC' -fuzztime 10s ./internal/bitstream > /dev/null
	$(GO) test -fuzz 'FuzzShardedVsRef' -fuzztime 10s ./internal/netsim > /dev/null
	$(GO) test -fuzz 'FuzzQueueVsEvents' -fuzztime 10s ./internal/netsim > /dev/null
	$(GO) test -fuzz 'FuzzFlowFramesVsBuild' -fuzztime 10s ./internal/trafficgen > /dev/null
	$(GO) test -fuzz 'FuzzZipfVsStdlib' -fuzztime 10s ./internal/trafficgen > /dev/null
	$(GO) test -fuzz 'FuzzProgramPageVsRef' -fuzztime 10s ./internal/flash > /dev/null
	$(GO) test -fuzz 'FuzzInjectorVsRand' -fuzztime 10s ./internal/faults > /dev/null
	$(GO) test -fuzz 'FuzzVerifiedMemoVsImageVersion' -fuzztime 10s ./internal/daemon > /dev/null
	$(GO) test -fuzz 'FuzzFoldMergeMatchesFlat' -fuzztime 10s ./internal/telemetry > /dev/null

# fleet_ota at the paper's upper deployment scale, one million simulated
# cables (≈2.4 s and 0.86 GB on the 2-vCPU reference host, so not in
# `check`). The run exits non-zero if a module ends on a bad image or a
# stale version.
fleet-scale:
	$(GO) run ./cmd/flexsfp-bench -run fleet_ota -fleet 1000000 > /dev/null

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Regenerate docs/RESULTS.txt, the default paper-vs-model report
# (cmd/flexsfp-bench's TestResultsDocIsCurrent fails when it is stale).
reports:
	$(GO) run ./cmd/flexsfp-bench > docs/RESULTS.txt.tmp
	mv docs/RESULTS.txt.tmp docs/RESULTS.txt

clean:
	$(GO) clean ./...
