GO ?= go

# stress knobs: repeat the concurrent-serving stress suite STRESS_COUNT
# times (raise to shake out rare interleavings) within STRESS_TIMEOUT.
STRESS_COUNT ?= 3
STRESS_TIMEOUT ?= 10m

.PHONY: build vet test race stress chaos chaos-repl lint docs differential perfbench check bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector — the gate for the
# parallel tensor-build path.
race:
	$(GO) test -race ./...

# stress repeats the concurrent-serving suite (parallel /query + /fleet +
# AddRCC over httptest, the /predict-under-hot-swap gate
# TestConcurrentPredictHotSwap, plus the catalog and index concurrency
# gates) under the race detector.
stress:
	$(GO) test -race -count $(STRESS_COUNT) -timeout $(STRESS_TIMEOUT) \
		-run 'Concurrent|SingleFlight|CachedEngine' \
		./internal/server/ ./internal/statusq/ ./internal/index/

# chaos runs the fault-injection and crash-recovery suites under the race
# detector: WAL torn-tail/replay recovery, kill-mid-ingest restart proofs
# (single-catalog and per-shard against the 4-shard router), injected
# disk and engine-build faults with cross-shard error isolation, load
# shedding, and panic recovery (see DESIGN.md "Durability & fault
# model").
chaos:
	$(GO) test -race -timeout $(STRESS_TIMEOUT) \
		-run 'Chaos|Fault|Torn|Recovery|Durable|Injected|Fire|Arm|Enable|Reset' \
		./internal/wal/ ./internal/statusq/ ./internal/server/ ./internal/faultinject/

# chaos-repl runs the replication-specific chaos suite under the race
# detector: quorum append/ack ordering, follower faults with bounded
# catch-up, quorum-loss refusal (no ack ever escapes), primary failover
# replayed through the dedup index, reopen repair of torn, diverged, and
# lost replica tails, kill-primary-mid-WAL crash recovery at the sharded
# tier, the health-ladder/breaker path at the HTTP tier (all replicas
# down serves stale while /readyz reports failed), and the
# replicated-vs-serial differential (see docs/OPERATIONS.md
# "Replication").
chaos-repl:
	$(GO) test -race -timeout $(STRESS_TIMEOUT) \
		-run 'ChaosRepl|Replicated|Rewind|Quorum' \
		./internal/wal/ ./internal/statusq/ ./internal/server/

# lint runs domdlint, the project's invariant analyzers (internal/lint):
# the per-function checks (lockguard, detrange, floateq, walltime,
# droppederr, ctxflow, docstring) plus the interprocedural call-graph
# analyzers (lockorder, goleak, ackorder, metriccatalog). Non-zero exit
# on any finding; suppress a deliberate violation with
# `//lint:ignore <analyzer> <reason>` (see DESIGN.md "Enforced
# invariants").
lint:
	$(GO) run ./cmd/domdlint ./...

# docs keeps the operator documentation honest: the docstring analyzer
# enforces godoc-convention comments on the operator-facing packages, the
# metriccatalog analyzer enforces bidirectional agreement between obs
# metric registrations and docs/OPERATIONS.md (file:line findings in both
# directions), and scripts/check_docs.sh cross-checks the served
# endpoints, serve flags, and failpoints — so documentation rot fails
# the build.
docs:
	$(GO) run ./cmd/domdlint -analyzers docstring,metriccatalog ./...
	sh scripts/check_docs.sh

# differential re-runs the bitwise (math.Float64bits) equivalence suites
# under the race detector. The incremental-maintenance suite: random RCC
# streams applied via the O(delta) path must stay bitwise-identical to
# engines rebuilt from scratch, at the engine, catalog+WAL-replay, sweep,
# and stat-structure layers — including the 4-shard router
# (TestDeltaShardedEquivalence), whose answers must match a single
# catalog fed the same stream. The one-model-path suite: /query,
# /query/batch, /fleet and /predict serve the same delay on a single and
# a 4-shard catalog (TestOnePathDifferential), and Registry.Predict
# matches the reference prediction loop (TestPredictMatchesReferenceLoop).
differential:
	$(GO) test -race -count 1 -run 'TestDelta' ./internal/statusq/
	$(GO) test -race -count 1 -run 'TestOnePathDifferential' ./internal/server/
	$(GO) test -race -count 1 -run 'TestPredictMatchesReferenceLoop' ./internal/modelserve/

# perfbench vets and short-tests the benchmark module, a nested Go module
# (perfbench/go.mod) that `go build ./...` at the root skips but that
# imports the serving packages (core, modelserve, statusq, server).
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -short ./...

# check is the CI gate: compile, vet, race-test everything, repeat the
# concurrency stress suite, re-run the chaos (fault-injection) suite and
# the differential suites, then enforce the lint invariants (domdlint
# must exit 0 on the tree) and the docs cross-checks, and vet and
# short-test the benchmark module.
check:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./... && $(MAKE) stress && $(MAKE) chaos && $(MAKE) chaos-repl && $(MAKE) differential && $(MAKE) lint && $(MAKE) docs && $(MAKE) perfbench

# bench runs the Go micro-benchmarks (including the statusq
# ApplyRCC-vs-rebuild pair backing DESIGN.md §4.3), then the loadgen
# harness, which rewrites BENCH_6.json from a live served workload, the
# shard-scaling scenario, which rewrites BENCH_7.json from a
# fsync-per-ack sweep of 1..8 shards (powers of two), and the
# prediction-serving scenario, which rewrites BENCH_10.json from a
# /predict-heavy workload under rolling model hot-swaps.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
	$(GO) test -run '^$$' -bench 'ApplyRCC|RebuildAfterIngest' -benchmem ./internal/statusq/
	$(GO) run ./cmd/domd loadgen -duration 5s -serve-rccs 1500 -micro-iters 300 -out BENCH_6.json
	$(GO) run ./cmd/domd loadgen -scenario shards -shards 8 -duration 3s -out BENCH_7.json
	$(GO) run ./cmd/domd loadgen -scenario predict -duration 5s -serve-rccs 1500 -out BENCH_10.json
