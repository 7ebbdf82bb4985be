# Reproduces CI locally, one target per job. `make check` is the whole
# pipeline in CI order: cheap static analysis first, then the race
# tests, then the fuzz smoke.

# Pinned to the same versions as .github/workflows/ci.yml. Both run via
# `go run mod@version`, so they need network the first time; use
# `make lint-offline` on an air-gapped machine to run everything that
# resolves from the local build cache.
STATICCHECK = go run honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK = go run golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: all build check lint lint-offline test race chaos crash soak fuzz-smoke bench bench-check perfbench-test replay-smoke failover-drill gauntlet gauntlet-smoke edge-smoke vettool clean

all: build

build:
	go build ./...

# The full CI pipeline in CI order.
check: lint race fuzz-smoke

# lint = the CI lint job: go vet, the repo's own invariant suite, then
# the pinned third-party analyzers.
lint: lint-offline
	$(STATICCHECK) ./...
	$(GOVULNCHECK) ./...

# Everything in lint that works with no network: go vet + tagwatchvet.
# The count check mirrors CI: a silently unregistered analyzer fails
# here, not months later when its invariant regresses unnoticed.
lint-offline:
	go build ./...
	go vet ./...
	@n=$$(go run ./cmd/tagwatchvet -list | wc -l); \
	test "$$n" -eq 7 || { echo "tagwatchvet registers $$n analyzers, want 7"; exit 1; }
	go run ./cmd/tagwatchvet ./internal/... ./cmd/...

test:
	go test ./...

race:
	go test -race ./...

# The chaos regression suite, named so a failure names itself.
chaos:
	go test -race -count=1 -run 'TestFleetRecoversFromBlackhole|TestFleetSurvivesCorruptionStorm' ./internal/fleet/
	go test -race -count=1 ./internal/chaos/

# The crash-injection suite: the durable statestore and its engine/fleet
# wiring, killed at every mutating filesystem operation (torn writes,
# skipped renames) and required to recover everything it acked durable.
crash:
	go test -race -count=1 -run 'TestCrash' ./internal/statestore/ ./internal/core/
	go test -race -count=1 -run 'TestFleetState' ./internal/fleet/

# The overload soak at acceptance scale: a million unique ghost EPCs and
# 500 greedy API clients against one manager, under the race detector
# with a hard memory ceiling. Proves the bounds hold (registry capped,
# quarantine ring fixed, heap flat), the counters fire (shed, rate
# limit, eviction, quarantine), /healthz answers throughout, and the
# restart round-trip restores only legitimate tags. Without
# TAGWATCH_SOAK=full the same test runs at a CI-friendly 100k scale
# inside the ordinary race job.
soak:
	TAGWATCH_SOAK=full GOMEMLIMIT=512MiB go test -race -count=1 -run TestSoakFloodSurvival -v ./internal/fleet/

# Short fuzz bursts on the wire-facing decoders, mirroring CI. Go allows
# one -fuzz target per invocation.
fuzz-smoke:
	go test -fuzz=FuzzDecodeFrame -fuzztime=10s -run '^$$' ./internal/llrp/
	go test -fuzz=FuzzParse -fuzztime=10s -run '^$$' ./internal/epc/

# The perf-trajectory rig: the core data-plane benchmarks (wire codec,
# schedule solver, motion model, EPC ops, WAL append, registry merge,
# scenario compile, event-bus fan-out, ring replay and the reading
# history write) rendered as BENCH_core.json. The file is checked in
# per PR and uploaded as a CI artifact, so ns/op / B/op / allocs/op form
# a reviewable trajectory across the repo's history. Absolute numbers
# vary by machine; the allocation counts should not.
BENCH_PKGS = ./internal/llrp ./internal/schedule ./internal/motion ./internal/epc ./internal/statestore ./internal/fleet ./internal/scenario ./internal/core
BENCH_SEL  = 'ROAccessReport|Select40Tags|Select400Tags|NewIndexTable|ObserveStationary|ObserveMoving|Peek|CRC16|MatchBits|WALAppend|JournalStream|RegistryObserve|CompileTimeline|BusPublishFanout|RingReplay|HistoryAdd'
bench:
	go test -run '^$$' -bench $(BENCH_SEL) -benchmem -benchtime=0.2s $(BENCH_PKGS) | go run ./cmd/benchjson > BENCH_core.json
	@cat BENCH_core.json

# The allocation gate: the same selection, checked against the checked-in
# BENCH_core.json. Fails when a benchmark disappeared or its allocs/op rose
# by more than 1 %; ns/op is printed but not judged (it follows the
# machine). The run goes to a temp file first so a failing `go test`
# fails the target.
bench-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	go test -run '^$$' -bench $(BENCH_SEL) -benchmem -benchtime=0.2s $(BENCH_PKGS) > "$$tmp" && \
	go run ./cmd/benchjson -compare BENCH_core.json < "$$tmp"

# The repo benchmark's own tests. perfbench/ is a separate module that
# imports internal/*, so the root `go test ./...` never builds it: a core
# API change that breaks the benchmark shows up here, not at the next
# benchmark run.
perfbench-test:
	cd perfbench && go test -race ./...

# The replay determinism gate: the retail-rush pack streamed through a
# real fleet at 100x virtual time, twice, under the race detector; the
# runs must agree on the report fingerprint (wall-clock timing is the
# only permitted difference).
replay-smoke:
	go run -race ./cmd/replayd -scenario retail-rush -speed 100 -report /tmp/tagwatch-replay-a.json
	go run -race ./cmd/replayd -scenario retail-rush -speed 100 -report /tmp/tagwatch-replay-b.json
	@fa=$$(grep -o '"fingerprint": "[0-9a-f]*"' /tmp/tagwatch-replay-a.json); \
	fb=$$(grep -o '"fingerprint": "[0-9a-f]*"' /tmp/tagwatch-replay-b.json); \
	test -n "$$fa" && test "$$fa" = "$$fb" || { echo "replay-smoke: fingerprint mismatch: $$fa vs $$fb"; exit 1; }; \
	echo "replay-smoke: deterministic ($$fa)"

# The failover acceptance gate: a retail-rush replay through a primary
# whose replication link is chaos-degraded (latency, truncation,
# corruption, resets, a half-open blackhole), killed mid-run at a seeded
# point with no final flush, standby promoted, run finished on the
# promoted fleet — whose registry fingerprint must match the
# no-failover control run. The test itself runs the drill twice, so one
# invocation already proves the drill deterministic; under -race.
failover-drill:
	go test -race -count=1 -run 'TestFailoverDrill' -v ./internal/replay/

# The fault gauntlet: the declarative campaign orchestrator runs the
# built-in smoke matrix — every fault kind (clean durable baseline,
# chaos/partitioned/flapping replication links through the failover
# drill, ENOSPC and EIO under the statestore, skewed reader clocks,
# stalled SSE consumers, a flapping edge fan-out link) against shrunk
# scenario packs, judged by the
# invariant oracles. Exit code 4 = at least one oracle failed.
gauntlet:
	go run ./cmd/gauntlet -campaign smoke -report /tmp/tagwatch-gauntlet.json
	@cat /tmp/tagwatch-gauntlet.json

# The gauntlet determinism gate, mirroring replay-smoke: the same
# campaign and seed twice under the race detector must agree on the
# verdict fingerprint (wall timings and fault counters are the only
# permitted differences), and both runs must pass every oracle.
gauntlet-smoke:
	go run -race ./cmd/gauntlet -campaign smoke -seed 1 -quiet -report /tmp/tagwatch-gauntlet-a.json
	go run -race ./cmd/gauntlet -campaign smoke -seed 1 -quiet -report /tmp/tagwatch-gauntlet-b.json
	@fa=$$(grep -o '"fingerprint": "[0-9a-f]*"' /tmp/tagwatch-gauntlet-a.json); \
	fb=$$(grep -o '"fingerprint": "[0-9a-f]*"' /tmp/tagwatch-gauntlet-b.json); \
	test -n "$$fa" && test "$$fa" = "$$fb" || { echo "gauntlet-smoke: fingerprint mismatch: $$fa vs $$fb"; exit 1; }; \
	echo "gauntlet-smoke: deterministic ($$fa)"

# The fan-out survival gate: real processes — readersim feeding a
# fleetd primary, an edged mirror following it over resumable SSE. The
# primary is SIGKILLed mid-stream and restarted (fresh bus identity,
# empty registry). edged must keep answering /healthz throughout,
# re-anchor with exactly ONE additional reset, report zero contiguity
# violations, and re-converge to the reborn primary's EPC set.
edge-smoke:
	sh scripts/edge-smoke.sh

# Builds the vet-protocol binary so `go vet -vettool=bin/tagwatchvet`
# integrates the suite with go vet's package driver and build cache.
vettool:
	go build -o bin/tagwatchvet ./cmd/tagwatchvet

clean:
	rm -rf bin
