GO ?= go
FUZZTIME ?= 30s
MAX_REGRESS ?= 0.25

.PHONY: all build test race cover cover-gate bench bench-json bench-gate alloc-gate ci fmt-check fuzz fuzz-smoke soak-agent soak-stream soak-cluster serve-smoke cluster-smoke experiments examples clean

all: build test

# Everything the lint + test CI jobs run, reproducible offline. The
# network-installed linters (staticcheck, govulncheck) only run when they
# are already on PATH, so `make ci` gives the same verdict on an
# air-gapped machine as in CI minus those two advisory steps.
ci: fmt-check build test
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "ci: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "ci: govulncheck not installed, skipping"; \
	fi

# gofmt -l prints offending files but always exits 0; fail explicitly.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Coverage gate: internal/failure is the substrate every Monte Carlo
# oracle, experiment schedule and scenario-source job is built on, so its
# statement coverage is floored (currently measured ~96%; the floor
# leaves headroom for refactors without letting whole features land
# untested). Writes coverage.out so CI can publish the profile.
COVER_FLOOR_FAILURE ?= 90
cover-gate:
	$(GO) test -coverprofile=coverage.out ./internal/failure/
	@pct="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }')"; \
	echo "internal/failure coverage: $$pct% (floor $(COVER_FLOOR_FAILURE)%)"; \
	awk -v p="$$pct" -v f="$(COVER_FLOOR_FAILURE)" 'BEGIN { exit (p + 0 < f + 0) ? 1 : 0 }' || \
		{ echo "cover-gate: internal/failure coverage $$pct% fell below the $(COVER_FLOOR_FAILURE)% floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem ./...

# Run the tracked benchmark suites and record ns/op, allocs/op and
# throughput (plus optimized-vs-baseline speedups) in BENCH_selection.json
# (Monte Carlo kernels), BENCH_bandit.json (epoch-incremental LSR +
# trial-sharded experiment runners) and BENCH_obs.json (observability hot
# paths, proving the nil-registry cost is a single nil check), tracking
# the perf trajectory across PRs.
bench-json:
	$(GO) run ./cmd/benchregress -suite selection
	$(GO) run ./cmd/benchregress -suite bandit
	$(GO) run ./cmd/benchregress -suite obs
	$(GO) run ./cmd/benchregress -suite agent
	$(GO) run ./cmd/benchregress -suite loss
	$(GO) run ./cmd/benchregress -suite cluster
	$(GO) run ./cmd/benchregress -suite failure

# CI perf gate: rerun every tracked suite and fail if any benchmark lost
# more than MAX_REGRESS (default 25%) of its committed-baseline
# throughput, or disappeared from the suite without a re-baseline.
bench-gate:
	$(GO) run ./cmd/benchregress -suite selection -compare -max-regress $(MAX_REGRESS)
	$(GO) run ./cmd/benchregress -suite bandit -compare -max-regress $(MAX_REGRESS)
	$(GO) run ./cmd/benchregress -suite obs -compare -max-regress $(MAX_REGRESS)
	$(GO) run ./cmd/benchregress -suite agent -compare -max-regress $(MAX_REGRESS)
	$(GO) run ./cmd/benchregress -suite loss -compare -max-regress $(MAX_REGRESS)
	$(GO) run ./cmd/benchregress -suite cluster -compare -max-regress $(MAX_REGRESS)
	$(GO) run ./cmd/benchregress -suite failure -compare -max-regress $(MAX_REGRESS)

# CI allocation gate: the steady-state zero-allocation contracts asserted
# with testing.AllocsPerRun — the Monte Carlo incremental oracle (Gain,
# GainBatch, splitless Add on both kernels), the GF(2) basis slab reuse and
# the sparse-basis scratch pre-sizing. Gated, not just documented.
alloc-gate:
	$(GO) test -run 'TestMonteCarloIncSteadyStateZeroAlloc' -count=1 -v ./internal/er/
	$(GO) test -run 'TestGF2BasisSteadyStateAllocs|TestSparseBasisScratchPresized|TestSparseBasisDependentScratchAllocFree' -count=1 -v ./internal/linalg/
	$(GO) test -run 'TestRankOfWithGF2' -count=1 -v ./internal/tomo/

fuzz: fuzz-smoke

# Native fuzzing smoke: every target gets FUZZTIME (go test accepts one
# -fuzz pattern per invocation, hence one line per target). Each target
# ships a seed corpus via f.Add, so even -fuzztime 0 replays the known
# tricky frames. Targets: the GF(2)-vs-float64 rank differential, the
# scenario-source contract invariants, the edge-list and weight parsers,
# the canonical cache-key encoder, and the agent and cluster wire codecs.
fuzz-smoke:
	$(GO) test -fuzz=FuzzGF2VsFloat64Rank -fuzztime=$(FUZZTIME) ./internal/linalg/
	$(GO) test -fuzz=FuzzScenarioSource -fuzztime=$(FUZZTIME) ./internal/failure/
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -fuzz=FuzzLoadWeights -fuzztime=$(FUZZTIME) ./internal/topo/
	$(GO) test -fuzz=FuzzCanonicalKey -fuzztime=$(FUZZTIME) ./internal/selection/
	$(GO) test -fuzz=FuzzWireFrame -fuzztime=$(FUZZTIME) ./internal/agent/
	$(GO) test -fuzz=FuzzBatchFrame -fuzztime=$(FUZZTIME) ./internal/agent/
	$(GO) test -fuzz=FuzzBatchRoundTrip -fuzztime=$(FUZZTIME) ./internal/agent/
	$(GO) test -fuzz=FuzzPeerFrame -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -fuzz=FuzzPeerRoundTrip -fuzztime=$(FUZZTIME) ./internal/cluster/

# Hammer the fault-tolerant collection plane (retries, circuit breakers,
# persistent sessions) with scripted faults and concurrent collectors
# under the race detector. Bounded well under 30s.
soak-agent:
	AGENT_SOAK=1 $(GO) test -race -run TestAgentSoak -count=1 -timeout 60s -v ./internal/agent/

# Drive STREAM_SOAK_SESSIONS (default 100000) logical monitor sessions,
# multiplexed over a few thousand real TCP connections, through the
# streaming collection plane: asserts complete epoch assembly and flat
# heap across epochs, and logs sustained frames/sec. Uses the full
# descriptor budget (the test raises the soft NOFILE limit to the hard
# one and clamps the session count to what the limit can carry).
soak-stream:
	STREAM_SOAK=1 $(GO) test -run TestStreamSoak -count=1 -timeout 590s -v ./internal/agent/

# Drive the `tomo serve` daemon two ways: the in-process race-detector
# tests over the whole HTTP surface, then scripts/serve_smoke.sh, which
# boots the real binary on a random port, walks the job API with curl and
# shuts it down with SIGTERM. The script traps EXIT/INT/TERM and kills
# the daemon PID on every exit path, so a failing assertion can never
# leave an orphaned daemon hanging a CI runner.
serve-smoke:
	$(GO) test -race -run 'TestServe|TestAPI' -count=1 -timeout 120s -v ./cmd/tomo/
	./scripts/serve_smoke.sh

# Churn soak for the cluster plane: a 16-node in-process ring under the
# race detector with peers being killed and revived while submitters
# spray a shared key space. Asserts no submission is lost, every result
# is bit-identical to the single-node reference, and every node's
# disposition ledger balances after the drain. Bounded well under 60s.
soak-cluster:
	CLUSTER_SOAK=1 $(GO) test -race -run TestClusterChurnSoak -count=1 -timeout 120s -v ./internal/cluster/

# Boot three real `tomo serve` daemons wired into one consistent-hash
# ring, walk the forwarded job path with curl, kill the owner with
# SIGKILL and prove the survivors route around it. The script traps
# EXIT/INT/TERM and kills all daemon PIDs on every exit path.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Regenerate every paper table/figure at quick scale (seconds). Use
# SCALE=medium or SCALE=paper for the larger runs.
SCALE ?= quick
experiments:
	$(GO) run ./cmd/experiments -run all -scale $(SCALE)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/linkinference
	$(GO) run ./examples/monitoring
	$(GO) run ./examples/lossinference
	$(GO) run ./examples/agents
	$(GO) run ./examples/closedloop
	$(GO) run ./examples/learning
	$(GO) run ./examples/observability
	$(GO) run ./examples/service

clean:
	$(GO) clean ./...
