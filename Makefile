GO ?= go

.PHONY: all build test test-count matrix vet fmt-check race verify docs-check bench-test bench-counts bench-core fuzz bench trace-smoke serve-smoke platforms-smoke cluster-smoke metrics-smoke stream-smoke load-smoke clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Formatting: gofmt must have nothing to say about any tracked Go file.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# The test ledger: the three figures a PR that deletes tests is judged on —
# Test/Fuzz/Example functions outside benchmark/, then the top-level and the
# total "--- PASS" lines of one non-short verbose run (subtests included in
# the total). A PR quotes this before and after; any failure fails the target.
test-count:
	@echo "functions $$(grep -rhE '^func (Test|Fuzz|Example)' --include='*_test.go' --exclude-dir=benchmark . | wc -l)"
	@$(GO) test -count=1 -v ./... | awk '/^--- PASS/ {top++} /--- PASS/ {all++} /^(--- FAIL|FAIL)/ {bad++; print} \
		END {print "top-level", top; print "total", all; exit bad != 0}'

# The execution-mode matrix (TestWindowViewMatchesSliceOracle), verbose: the
# per-cell RUN/PASS lines are dropped, leaving the grid of cells run per
# algorithm and axis with its holes, and any failing cell.
matrix:
	@$(GO) test -count=1 -v -run '^TestWindowViewMatchesSliceOracle$$' ./internal/algorithms | \
		awk '!/^ *(=== (RUN|PAUSE|CONT|NAME)|--- PASS)/ {print} /^(--- FAIL|FAIL)/ {bad++} END {exit bad != 0}'

# Race-checked run of the fault-tolerance, observability and serving
# surfaces (the kill-9 tests, the cluster simulator, the concurrent registry
# tests, the query-service concurrency tests, and the pool-aliasing test),
# plus the warp/algorithm layers whose per-worker scratch reuse must stay race-free,
# and the ICM runtime, whose scatter plan is built once per graph by whichever
# of several concurrent runs gets there first, on a fresh graph and on a live
# epoch building from its predecessor's plan (repeated: the window is the
# first instant of the graph), and the graph, stream and live layers:
# derived graphs share property slabs with their source across concurrent
# queries, and an epoch is materialized while readers hold the previous one.
# The exchange path's tests are repeated too: every worker stages its peers'
# outboxes and refills its one inbox each superstep, so a read of a buffer
# another worker is still filling, or a range delivered twice, shows there.
# So are the failure-channel tests: a program error, a panic or a failed
# exchange crosses worker goroutines through the engine's one recorded
# failure. So are the seeded-run tests: in superstep 1 every worker's
# senders read other vertices' seeds to decide whether a message is sent.
race:
	$(GO) test -race ./internal/engine/... ./internal/chaos/... ./internal/cluster/... ./internal/obs/... ./internal/serve/... ./internal/warp/... ./internal/algorithms/... ./internal/core/... ./internal/tgraph/... ./internal/stream/... ./internal/live/...
	$(GO) test -race -count=10 -run 'TestPlanSharedByConcurrentRuns' ./internal/core/
	$(GO) test -race -count=10 -run 'TestPoolNoAliasingAcrossSupersteps|TestReceiveChecksOwnership|FuzzSenderCombine|TestStaleRangeNotDeliveredAgain|TestRunSurvivesFaults' ./internal/engine/
	$(GO) test -race -count=10 -run 'TestProgramErrorEndsItsSuperstep' ./internal/core/
	$(GO) test -race -count=10 -run '^(TestIncrementalMatchesFullRecompute|TestSeededRunTakesFewerSupersteps|TestIncrementalServing)$$' ./internal/algorithms/ ./internal/serve/

# Fuzz smoke: every fuzz target in the codec (intervals, slices, the word
# forms against the any forms), engine (the batch decoder, the first thing a
# peer's bytes reach, the checkpoint restore, the first thing a disk's bytes
# reach — its seeds are up to 150 KB, so minimizing one is capped — the
# checkpoint file's frame, and the sender's fold against the arrival-only
# fold), state, warp and graph-format
# layers (snapshot round trip and mutation, the text parser, the partition
# meta decoder), the window view against its slice oracle, the cluster's
# frame and control-message decoders and what the coordinator's handlers do
# with one arbitrary frame mid-run (over the simulator), the WAL's record
# decoder and replay, the accumulator state decoder,
# the live graph's patched epochs and their scatter plans against their
# rebuilds, the result renderer's strings against encoding/json, and the
# trace readers (parse, summarize, validate, merge — a seed is a whole trace,
# so minimizing one is capped too), for FUZZTIME each (Go allows one -fuzz
# target per invocation).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzIntervalDecode -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzInt64SliceDecode -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzIntervalAppendDecode -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzWordRoundTrip -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzRestoreDurable -fuzztime $(FUZZTIME) -fuzzminimizetime 50x ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzCheckpointFrame -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzSenderCombine -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzStateSet -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzWarp$$' -fuzztime $(FUZZTIME) ./internal/warp
	$(GO) test -run '^$$' -fuzz FuzzWarpOracle -fuzztime $(FUZZTIME) ./internal/warp
	$(GO) test -run '^$$' -fuzz FuzzFormatRoundTrip -fuzztime $(FUZZTIME) ./internal/tgraph
	$(GO) test -run '^$$' -fuzz FuzzSnapshotMutation -fuzztime $(FUZZTIME) ./internal/tgraph
	$(GO) test -run '^$$' -fuzz FuzzTextRead -fuzztime $(FUZZTIME) ./internal/tgraph
	$(GO) test -run '^$$' -fuzz FuzzSlice -fuzztime $(FUZZTIME) ./internal/tgraph
	$(GO) test -run '^$$' -fuzz FuzzDecodePartitionMeta -fuzztime $(FUZZTIME) ./internal/tgraph
	$(GO) test -run '^$$' -fuzz FuzzWindowView -fuzztime $(FUZZTIME) ./internal/algorithms
	$(GO) test -run '^$$' -fuzz FuzzClusterFrames -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzDriverFrames -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzWALDecodeBatch -fuzztime $(FUZZTIME) ./internal/live
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/live
	$(GO) test -run '^$$' -fuzz FuzzLiveSnapshotHeader -fuzztime $(FUZZTIME) ./internal/live
	$(GO) test -run '^$$' -fuzz FuzzEpochPatch -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run '^$$' -fuzz FuzzEpochPlan -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRenderString -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzTrace -fuzztime $(FUZZTIME) -fuzzminimizetime 50x ./internal/obs

# The full gate: everything formatted, vetted, built, and race-tested.
# Long-running chaos tests honour -short via `make verify SHORT=-short`.
verify: fmt-check
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test $(SHORT) -race ./...

# The documents name the code: every backticked `pkg.Ident` (pkg under
# internal/) must be declared in that package, and every bare backticked
# CamelCase name must still appear in the Go code; and a CHANGES.md entry
# from PR 46 on is at most 3 000 bytes (docs_test.go).
docs-check:
	$(GO) test -count=1 -run '^(TestDocsNameDeclaredIdentifiers|TestChangesEntriesAreCapped)$$' .

# The benchmark is a module of its own (benchmark/go.mod), which `./...` from
# the root does not descend into: its unit tests, plus every workload run at
# -quick size with its verification checks.
bench-test:
	cd benchmark && $(GO) test ./...

# The count gate: one traced run of each workload BENCH_counts.json names
# (cluster_pr, live_refresh, serve_cold; seed 42, -seconds 2, reports in a
# temporary directory) must be correct, fail no operation and repeat every
# count the file commits exactly. The counts (compute and scatter calls,
# messages and their bytes, supersteps, warp calls, bytes per message,
# checkpoint bytes) are the paper's causal signal and do not depend on the
# host; live_refresh's seed hit ratio must stay 1, so a change that stops
# seeding fails too. A change that moves one on purpose rewrites its value in
# the same commit.
# jq: one line for each check workload $w's traced report fails against BENCH_counts.json.
COUNTS_JQ = .metrics as $$m | (if .correct != true then "correct: \(.correct)" else empty end), \
	(if .failed != 0 then "failed: \(.failed)" else empty end), \
	($$want[0][$$w] | to_entries[] | select(.value != $$m[.key].value) | "\(.key): \($$m[.key].value), committed \(.value)")
bench-counts:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for w in $$(jq -r 'keys[]' BENCH_counts.json); do \
		bash benchmark/run.sh -out "$$tmp" -workload $$w -trace 1 -seconds 2 -seed 42 > "$$tmp/$$w.log" 2>&1 \
			|| { tail -5 "$$tmp/$$w.log"; echo "bench-counts: $$w: the run failed"; exit 1; }; \
		bad=$$(jq -r --arg w $$w --slurpfile want BENCH_counts.json '$(COUNTS_JQ)' "$$tmp/$$w-layers.json"); \
		if [ -n "$$bad" ]; then echo "$$bad" | sed "s/^/bench-counts: $$w: /"; exit 1; fi; \
		echo "bench-counts: $$w: correct, 0 failed, $$(jq --arg w $$w '.[$$w] | length' BENCH_counts.json) counts repeat"; \
	done

# The micro-benchmarks of the ICM runtime (PartitionedState.Set at 1, 8 and
# 64 partitions; one PageRank-shaped hub's superstep, with its sum combiner
# and without; one SSSP-shaped vertex's scatter step reading its properties
# from the plan, and one scatter step per vertex of TwitterLike(1) through
# its plan in the order a superstep walks it; the scatter plan's cold build
# and memoised lookup; the measured traffic's windowed query as a view, whole
# and over a slice; a live epoch's plan built from scratch and from its
# predecessor's), of the warp sweep on the inboxes the acceptance benchmark
# measured (serve_cold's mean and largest, cluster_pr's unit messages), of
# the engine's exchange on SSSP-shaped traffic (the unit cost of an
# in-process receive) and on cluster_pr's traffic (unit float messages into
# its mean and its hub inbox under the sum combiner), of a live epoch's materialization (the whole
# graph, and one tick patched onto its predecessor, held to the rebuild) and
# of a served TwitterLike(1) SSSP result's body (its vertices rendered once
# into chunks, a cached hit written from them to a discarding writer and over
# loopback, and the indenting encoder they replaced; ns/op, allocations, body
# bytes and the loopback server's writes per hit), one iteration each:
# they check their own fixtures — the warp and exchange ones also that, once
# warmed, they allocate nothing; the render one that its body indents to the
# encoder's — so CI running them keeps them honest. For numbers, drop
# -benchtime and add -benchmem -count.
bench-core:
	$(GO) test -run '^$$' -bench 'StateSet|VertexStep|ScatterProps|ScatterPlan|NewRuntime|WindowedRun|EpochPlan' -benchtime=1x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'PathInbox|HubInbox|RankInbox' -benchtime=1x ./internal/warp
	$(GO) test -run '^$$' -bench 'ExchangeSteadyState|ExchangeRank' -benchtime=1x -benchmem ./internal/engine
	$(GO) test -run '^$$' -bench 'AccumulatorGraph|EpochPatch' -benchtime=1x -benchmem ./internal/stream
	$(GO) test -run '^$$' -bench 'RenderRun' -benchtime=1x -benchmem ./internal/serve

bench:
	$(GO) run ./cmd/graphite-bench -scale 1 -workers 8 all

# End-to-end tracing smoke test: run transit SSSP with a JSONL trace, then
# validate the trace (schema, superstep contiguity, totals reconciliation),
# merge it with itself as a cluster trace (its shard_step records against its
# cluster_step rows) and render the per-superstep breakdown. Then the cluster
# trace path the
# README documents: a coordinator running transit PageRank on a fixed
# loopback port and two workers, all three tracing under a temporary
# directory; the coordinator's trace must validate as Run's does, its
# superstep records' interval bytes included (graphite-trace -check), and the
# three traces must merge and reconcile (graphite-trace -cluster -check),
# then render.
TRACE ?= /tmp/graphite-trace-smoke.jsonl
trace-smoke:
	$(GO) run ./cmd/graphite-run -graph transit -algo sssp -source 0 -workers 2 -trace $(TRACE) > /dev/null
	$(GO) run ./cmd/graphite-trace -check $(TRACE)
	$(GO) run ./cmd/graphite-trace -cluster -check $(TRACE) $(TRACE)
	$(GO) run ./cmd/graphite-trace $(TRACE)
	@set -e; dir=$$(mktemp -d); trap 'kill $$(jobs -p) 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/" ./cmd/graphite-coordinator ./cmd/graphite-worker ./cmd/graphite-trace; \
	timeout 120 "$$dir/graphite-coordinator" -addr 127.0.0.1:18731 -workers 2 -graph transit -algo pr \
		-trace "$$dir/coord.jsonl" > /dev/null 2> "$$dir/coord.log" & coord=$$!; \
	for w in 0 1; do \
		"$$dir/graphite-worker" -coordinator 127.0.0.1:18731 -dir "$$dir/w$$w" -trace 2> "$$dir/w$$w.log" & \
		workers="$$workers $$!"; \
	done; \
	for p in $$coord $$workers; do wait $$p || { cat "$$dir"/*.log; exit 1; }; done; \
	set -- "$$dir/coord.jsonl" "$$dir/w0/trace.jsonl" "$$dir/w1/trace.jsonl"; \
	"$$dir/graphite-trace" -check "$$dir/coord.jsonl"; \
	"$$dir/graphite-trace" -cluster -check "$$@"; \
	"$$dir/graphite-trace" -cluster "$$@"

# Serving smoke test: the serve tests that hold the result cache to its
# contract. A concurrent burst of five distinct requests over transit, then a
# sequential confirm pass that must be all cache hits, with /metrics showing
# them (TestConcurrentIdenticalRequestsExecuteOnce); each algorithm's body as
# a hit serves it, against its golden (TestRunBodyGolden); no caller holding
# the cached result itself (TestExecuteResultDoesNotAliasCache); the worker
# count in the cache key (TestWorkerCountIsPartOfTheCacheKey). Under -race,
# because the leader, joiners and hits share one cached result across
# goroutines; a cache that stops storing fails the confirm pass.
serve-smoke:
	$(GO) test -race -count=1 -run '^(TestConcurrentIdenticalRequestsExecuteOnce|TestRunBodyGolden|TestExecuteResultDoesNotAliasCache|TestWorkerCountIsPartOfTheCacheKey)$$' ./internal/serve/

# Cross-platform smoke test: graphite-bench's verify experiment runs the 12
# algorithms on GRAPHITE and on the four baselines and checks every answer
# against the reference oracles, over the Table 1 datasets at scale 0.05 and
# then over a .gsn snapshot graphite-datagen writes; a mismatch exits
# non-zero.
platforms-smoke:
	$(GO) run ./cmd/graphite-bench -scale 0.05 verify
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/graphite-datagen -out "$$dir" -scale 0.05 -format snapshot twitter > /dev/null; \
	$(GO) run ./cmd/graphite-bench -graph "$$dir/twitter.gsn" verify

# End-to-end cluster recovery smoke test: the multi-process cluster runtime
# (coordinator + worker processes) with an SSSP worker SIGKILLed at each
# planted point, whole-graph and partitioned; fails unless every recovered
# result, and every count, is the fault-free run's. Then the protocol
# simulator's whole enumeration (every crash point, torn write, lease expiry
# and dead link over SSSP, EAT, PR and SCC) and its named schedules; then,
# over real sockets and repeated, the lease ticker against silent
# connections, the parity of the cluster's results and counts with
# core.Run, and sequential jobs that leave no partition file mapped.
cluster-smoke:
	$(GO) test -race -run 'TestProcessKillRecovery' -v ./internal/chaos/
	$(GO) test -race -run 'TestSim' -v ./internal/cluster
	$(GO) test -race -count=3 -run 'TestClusterLeaseOverSockets|TestClusterMatchesCoreRun|TestClusterJobsReleaseTheirGraph' ./internal/cluster

# Cluster observability smoke test: a coordinator plus a crash-and-respawn
# worker fleet with per-worker /metrics endpoints and appended JSONL traces;
# fails unless every endpoint serves the expected Prometheus families and
# the N+1 traces merge into one reconciled cluster timeline whose straggler
# attribution matches /debug/cluster.
metrics-smoke:
	$(GO) test -race -run 'TestClusterObservability' -v ./internal/chaos/

# Live-graph smoke test: the WAL kill-9 durability proof (a child process is
# SIGKILLed mid-ingest and the replayed graph must match acked batches
# byte-for-byte) and the concurrent ingest-vs-query race check.
stream-smoke:
	$(GO) test -race -run 'TestWALSurvivesSIGKILL' -v ./internal/chaos/
	$(GO) test -race -run 'TestConcurrentIngestAndQueries|TestLiveMutation' -v ./internal/serve/

# Snapshot-format smoke test: the kill-9 during-compaction chaos proof.
load-smoke:
	$(GO) test -race -run 'TestCompactionSurvivesSIGKILL' -v ./internal/chaos/

clean:
	$(GO) clean ./...
