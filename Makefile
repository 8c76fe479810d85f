GO ?= go

.PHONY: all build test vet race verify bench-test bench-core fuzz chaos bench bench-skew bench-obs trace-smoke serve-smoke cluster-smoke cluster-bench metrics-smoke stream-smoke load-smoke clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-checked run of the fault-tolerance, observability and serving
# surfaces (the chaos acceptance tests, the concurrent registry tests, the
# query-service concurrency tests, and the pool-aliasing test), plus the
# warp/algorithm layers whose per-worker scratch reuse must stay race-free,
# and the ICM runtime, whose scatter plan is built once per graph by whichever
# of several concurrent runs gets there first (repeated: the window is the
# first instant of a fresh graph), and the graph, stream and live layers:
# derived graphs share property slabs with their source across concurrent
# queries, and an epoch is materialized while readers hold the previous one.
race:
	$(GO) test -race ./internal/engine/... ./internal/chaos/... ./internal/cluster/... ./internal/obs/... ./internal/serve/... ./internal/warp/... ./internal/algorithms/... ./internal/core/... ./internal/tgraph/... ./internal/stream/... ./internal/live/...
	$(GO) test -race -count=10 -run 'TestPlanSharedByConcurrentRuns' ./internal/core/

# Fuzz smoke: every fuzz target in the codec (intervals, slices, the word
# forms against the any forms), engine (the batch decoder, the first thing a
# peer's bytes reach), state, warp and graph-format layers, and the window
# view against its slice oracle, for FUZZTIME each (Go allows one -fuzz target
# per invocation).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzIntervalDecode -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzInt64SliceDecode -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzIntervalAppendDecode -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzWordRoundTrip -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzStateSet -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzWarp$$' -fuzztime $(FUZZTIME) ./internal/warp
	$(GO) test -run '^$$' -fuzz FuzzWarpOracle -fuzztime $(FUZZTIME) ./internal/warp
	$(GO) test -run '^$$' -fuzz FuzzFormatRoundTrip -fuzztime $(FUZZTIME) ./internal/tgraph
	$(GO) test -run '^$$' -fuzz FuzzSnapshotMutation -fuzztime $(FUZZTIME) ./internal/tgraph
	$(GO) test -run '^$$' -fuzz FuzzSlice -fuzztime $(FUZZTIME) ./internal/tgraph
	$(GO) test -run '^$$' -fuzz FuzzWindowView -fuzztime $(FUZZTIME) ./internal/algorithms

# The full gate: everything vetted, built, and race-tested. Long-running
# chaos tests honour -short via `make verify SHORT=-short`.
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test $(SHORT) -race ./...

# The benchmark is a module of its own (benchmark/go.mod), which `./...` from
# the root does not descend into: its unit tests, plus every workload run at
# -quick size with its verification checks.
bench-test:
	cd benchmark && $(GO) test ./...

# The micro-benchmarks of the ICM runtime (PartitionedState.Set at 1, 8 and
# 64 partitions; one PageRank-shaped hub's superstep, with its sum combiner
# and without; one SSSP-shaped vertex's scatter step reading its properties
# from the plan; the scatter plan's cold build and memoised lookup; the
# measured traffic's windowed query as a view, whole and over a slice), of the
# warp sweep on the inboxes the acceptance benchmark measured (serve_cold's
# mean and largest, cluster_pr's unit messages) and of the engine's exchange
# on cluster_pr's traffic (unit float messages into its mean and its hub inbox
# under the sum combiner), one iteration each: they check their own fixtures —
# the warp and exchange ones also that, once warmed, they allocate nothing —
# so CI running them keeps them honest. For numbers, drop -benchtime and add
# -benchmem -count.
bench-core:
	$(GO) test -run '^$$' -bench 'StateSet|VertexStep|ScatterProps|NewRuntime|WindowedRun' -benchtime=1x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'PathInbox|HubInbox|RankInbox' -benchtime=1x ./internal/warp
	$(GO) test -run '^$$' -bench 'ExchangeRank' -benchtime=1x -benchmem ./internal/engine

# The fault-injection demonstration: SSSP under seeded faults vs fault-free.
chaos:
	$(GO) run ./cmd/graphite-bench chaos

bench:
	$(GO) run ./cmd/graphite-bench -scale 1 -workers 8 all

# Scheduler skew ablation: static vs balanced-partition vs work-stealing
# compute on a heavily skewed power-law temporal graph. Records the report
# to BENCH_skew.json (and a human-readable table on stdout); the run also
# asserts bit-identical results across scheduler modes and fails otherwise.
SKEW_SCALE ?= 1
bench-skew:
	$(GO) run ./cmd/graphite-bench -scale $(SKEW_SCALE) -workers 8 -skew-json BENCH_skew.json skew

# Observability overhead guard: instrumented (registry + JSONL tracer) vs
# bare superstep cost, medians of interleaved runs. Records the report to
# BENCH_obs.json and FAILS if the overhead ratio exceeds the pinned bound
# (bench.ObsOverheadBound).
OBS_SCALE ?= 1
bench-obs:
	$(GO) run ./cmd/graphite-bench -scale $(OBS_SCALE) -workers 8 -obs-json BENCH_obs.json obs

# End-to-end tracing smoke test: run transit SSSP with a JSONL trace, then
# validate the trace (schema, superstep contiguity, totals reconciliation)
# and render the per-superstep breakdown.
TRACE ?= /tmp/graphite-trace-smoke.jsonl
trace-smoke:
	$(GO) run ./cmd/graphite-run -graph transit -algo sssp -source 0 -workers 2 -trace $(TRACE) > /dev/null
	$(GO) run ./cmd/graphite-trace -check $(TRACE)
	$(GO) run ./cmd/graphite-trace $(TRACE)

# End-to-end serving smoke test: boot an in-process query server over the
# transit example, fire a mixed burst of requests at it, and fail unless
# every request succeeds and /debug/vars shows live result-cache hits.
serve-smoke:
	$(GO) run ./cmd/graphite-loadgen -boot

# End-to-end cluster recovery smoke test: run the multi-process cluster
# runtime (coordinator + 3 worker processes), SIGKILL a worker
# mid-superstep, and fail unless the recovered result is bit-identical to
# the fault-free run. Records MTTR, replayed supersteps and restored bytes
# to BENCH_recovery.json (and a summary on stdout).
cluster-smoke:
	$(GO) run ./cmd/graphite-bench -recovery-json BENCH_recovery.json recovery

# Data-plane bench: the same partitioned PageRank on the coordinator-relay
# plane and the direct worker-to-worker mesh, both checked bit-identical
# against a single-process run. Records makespans, per-plane byte counters
# (relay bytes must be ~0 in direct mode), per-shard resident graph sizes,
# and a partition-width sweep to BENCH_cluster.json.
CLUSTER_SCALE ?= 1
cluster-bench:
	$(GO) run ./cmd/graphite-bench -scale $(CLUSTER_SCALE) -cluster-json BENCH_cluster.json cluster

# Cluster observability smoke test: a coordinator plus a crash-and-respawn
# worker fleet with per-worker /metrics endpoints and appended JSONL traces;
# fails unless every endpoint serves the expected Prometheus families and
# the N+1 traces merge into one reconciled cluster timeline whose straggler
# attribution matches /debug/cluster.
metrics-smoke:
	$(GO) test -race -run 'TestClusterObservability' -v ./internal/chaos/

# Live-graph smoke test: the WAL kill-9 durability proof (a child process is
# SIGKILLed mid-ingest and the replayed graph must match acked batches
# byte-for-byte), the concurrent ingest-vs-query race check, then the stream
# experiment — durable ingest throughput, replay cost, and incremental
# (seeded) vs cold recomputation with bit-identity enforced. Records the
# report to BENCH_stream.json (and a human-readable table on stdout).
STREAM_SCALE ?= 1
stream-smoke:
	$(GO) test -race -run 'TestWALSurvivesSIGKILL' -v ./internal/chaos/
	$(GO) test -race -run 'TestConcurrentIngestAndQueries|TestLiveMutation' -v ./internal/serve/
	$(GO) run ./cmd/graphite-bench -scale $(STREAM_SCALE) -workers 8 -stream-json BENCH_stream.json stream

# Snapshot-format smoke test: the load experiment (text vs binary vs mapped
# .gsn opens, with a hard >= 10x mmap-vs-text gate, algorithm identity on
# the mapped graph, and compacted-vs-full WAL recovery), plus the kill-9
# during-compaction chaos proof. Records the report to BENCH_load.json.
LOAD_SCALE ?= 1
load-smoke:
	$(GO) test -race -run 'TestCompactionSurvivesSIGKILL' -v ./internal/chaos/
	$(GO) run ./cmd/graphite-bench -scale $(LOAD_SCALE) -load-json BENCH_load.json load

clean:
	$(GO) clean ./...
