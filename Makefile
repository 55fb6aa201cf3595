GO ?= go
FUZZTIME ?= 30s
MAX_REGRESS ?= 0.25

.PHONY: all build test race cover cover-gate bench bench-json bench-gate alloc-gate golden-gate ci fmt-check fuzz fuzz-smoke soak-agent soak-stream soak-cluster serve-smoke cluster-smoke experiments examples clean

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

# go test -run and -fuzz exit 0 when a pattern matches nothing, so a gate
# that names a deleted or renamed test would pass without running it.
# check-names PKG,NAMES fails unless PKG defines every test or fuzz target
# in the |-separated NAMES; gate-run runs exactly those tests, gate-fuzz
# fuzzes one target for FUZZTIME, both after the check.
check-names = @listed="$$($(GO) test -list . $(1))" || exit 1; \
	for n in $$(echo '$(2)' | tr '|' ' '); do \
		printf '%s\n' "$$listed" | grep -qx "$$n" || { echo "$(1): no test or fuzz target named $$n"; exit 1; }; \
	done

define gate-run
	$(call check-names,$(1),$(2))
	$(GO) test -run '^($(2))$$' -count=1 -v $(1)
endef

define gate-fuzz
	$(call check-names,$(1),$(2))
	$(GO) test -fuzz='^$(2)$$' -fuzztime=$(FUZZTIME) $(1)
endef

# CI allocation gate: allocation contracts asserted with
# testing.AllocsPerRun. Most are steady-state zeros — the Monte Carlo
# incremental oracle (Gain, splitless Add), the LSR and ProbRoMe oracles'
# Gain, the sparse-basis scratch pre-sizing and alloc-free probes, and the
# path matrix's rank and identifiability passes on a caller-held basis.
# One is a bound: the loss engine's Normalize of a 700x64 probe body stays
# at or under 500 allocations (decoding into [][]int took about 5,000).
# Gated, not just documented.
alloc-gate:
	$(call gate-run,./internal/er/,TestMonteCarloIncSteadyStateZeroAlloc|TestThetaBoundIncGainZeroAlloc|TestProbBoundIncGainZeroAlloc)
	$(call gate-run,./internal/linalg/,TestSparseBasisScratchPresized|TestSparseBasisDependentScratchAllocFree)
	$(call gate-run,./internal/tomo/,TestRankOfWithZeroAlloc|TestRankAndIdentifiableWithZeroAlloc)
	$(call gate-run,./internal/loss/,TestLossNormalizeAllocs)

# CI golden gate: the output pins (MonteRoMe, MatRoMe and figure
# fingerprints), the packed-vs-serial Monte Carlo oracle equivalence and
# the span memo differential, once per GOMAXPROCS value in 1, 2 and 4.
# Each value runs in its own test processes: er sizes its worker pool once
# per process, so `-cpu 1,2,4` in one process would shard the mask
# precompute at a single width only.
GOLDEN_ER = TestMonteCarloIncMatchesSerial|TestMonteCarloIncSpanMemoSound
GOLDEN_EXPERIMENTS = TestMonteRoMeGoldenFingerprints|TestMatRoMeGoldenFingerprints|TestFigureGoldenFingerprints
golden-gate:
	$(call check-names,./internal/er/,$(GOLDEN_ER))
	$(call check-names,./internal/experiments/,$(GOLDEN_EXPERIMENTS))
	@for p in 1 2 4; do \
		echo "GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -run '^($(GOLDEN_ER))$$' -count=1 -v ./internal/er/ || exit 1; \
		GOMAXPROCS=$$p $(GO) test -run '^($(GOLDEN_EXPERIMENTS))$$' -count=1 -v ./internal/experiments/ || exit 1; \
	done

fuzz: fuzz-smoke

# Native fuzzing smoke: every target gets FUZZTIME (go test accepts one
# -fuzz pattern per invocation, hence one line per target). Each target
# ships a seed corpus via f.Add, so even -fuzztime 0 replays the known
# tricky frames. Targets: the sparse-basis vs exact big.Rat rank
# differential, tomo.System against an exact big.Rat solution, the
# scenario-source contract invariants, the edge-list and weight parsers,
# the canonical cache-key encoder, the loss engine's packed probe decoder
# against encoding/json, and the agent and cluster wire codecs.
fuzz-smoke:
	$(call gate-fuzz,./internal/linalg/,FuzzSparseVsExactRank)
	$(call gate-fuzz,./internal/tomo/,FuzzSystemVsExact)
	$(call gate-fuzz,./internal/failure/,FuzzScenarioSource)
	$(call gate-fuzz,./internal/graph/,FuzzReadEdgeList)
	$(call gate-fuzz,./internal/topo/,FuzzLoadWeights)
	$(call gate-fuzz,./internal/selection/,FuzzCanonicalKey)
	$(call gate-fuzz,./internal/loss/,FuzzLossParams)
	$(call gate-fuzz,./internal/agent/,FuzzWireFrame)
	$(call gate-fuzz,./internal/agent/,FuzzBatchFrame)
	$(call gate-fuzz,./internal/agent/,FuzzBatchRoundTrip)
	$(call gate-fuzz,./internal/cluster/,FuzzPeerFrame)
	$(call gate-fuzz,./internal/cluster/,FuzzPeerRoundTrip)

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
