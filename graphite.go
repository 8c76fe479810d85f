// Package graphite is a from-scratch Go implementation of the
// interval-centric computing model (ICM) for distributed processing of
// temporal property graphs, reproducing "An Interval-centric Model for
// Distributed Computing over Temporal Graphs" (Gandhi & Simmhan, ICDE
// 2020).
//
// The package is a facade over the implementation packages:
//
//   - internal/interval — the time domain, half-open intervals, Allen
//     relations and interval sets;
//   - internal/tgraph — the temporal property graph model with the paper's
//     soundness constraints, plus text serialization;
//   - internal/warp — the time-warp and time-join operators;
//   - internal/core — the ICM runtime (interval vertices, partitioned
//     states, compute/scatter, warp combiners and warp suppression);
//   - internal/engine — the BSP substrate (workers, supersteps, combiners,
//     aggregators, master compute);
//   - internal/algorithms — the twelve TI and TD algorithms of the paper;
//   - internal/gen — synthetic dataset generators shaped like the paper's
//     six graphs;
//   - internal/bench — the experiment harness regenerating every table and
//     figure of the evaluation;
//   - internal/obs — observability: the metrics registry, typed
//     per-superstep trace events, and the JSONL/Prometheus/pprof sinks;
//   - internal/serve — the resident query service: a multi-graph JSON HTTP
//     server with admission control, result caching, singleflight dedup and
//     cancellable runs (cmd/graphite-serve is its daemon);
//   - internal/cluster — the crash-tolerant multi-process runtime: a
//     coordinator driving shard workers over framed TCP with heartbeats,
//     durable checkpoints and kill-9 rollback-and-replay recovery
//     (cmd/graphite-coordinator and cmd/graphite-worker are its daemons);
//   - internal/chaos — fault injection: a process fleet that SIGKILLs and
//     respawns real workers.
//
// A minimal program:
//
//	g := graphite.TransitExample()
//	r, err := graphite.RunSSSP(g, 0, 0, 4)
//	costs := graphite.SSSPCosts(r, 4) // per-arrival-interval travel costs
package graphite

import (
	"graphite/internal/algorithms"
	"graphite/internal/chaos"
	"graphite/internal/cluster"
	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
	"graphite/internal/warp"
)

// Time domain and intervals.
type (
	// Time is a discrete time-point.
	Time = ival.Time
	// Interval is a half-open time-interval [Start, End).
	Interval = ival.Interval
	// IntervalSet is a canonical set of time-points.
	IntervalSet = ival.Set
)

// Infinity is the unbounded future time-point.
const Infinity = ival.Infinity

// Interval constructors.
var (
	// NewInterval returns [start, end).
	NewInterval = ival.New
	// Point returns the unit interval [t, t+1).
	Point = ival.Point
	// From returns the unbounded interval [start, ∞).
	From = ival.From
	// Universe is [0, ∞).
	Universe = ival.Universe
)

// Temporal property graph model.
type (
	// Graph is an immutable temporal property graph.
	Graph = tgraph.Graph
	// GraphBuilder accumulates and validates a temporal graph.
	GraphBuilder = tgraph.Builder
	// VertexID identifies a vertex.
	VertexID = tgraph.VertexID
	// EdgeID identifies an edge.
	EdgeID = tgraph.EdgeID
	// Vertex is a temporal vertex.
	Vertex = tgraph.Vertex
	// Edge is a temporal edge.
	Edge = tgraph.Edge
	// MappedGraph is a Graph backed by a read-only memory mapping of a
	// snapshot (.gsn) file; Close releases the mapping (a no-op when
	// the graph was parsed into the heap).
	MappedGraph = tgraph.Mapped
)

// Graph construction and serialization.
var (
	// NewGraphBuilder returns an empty builder with capacity hints.
	NewGraphBuilder = tgraph.NewBuilder
	// ReadGraph parses the text format.
	ReadGraph = tgraph.Read
	// ReadGraphFile parses a graph file.
	ReadGraphFile = tgraph.ReadFile
	// WriteGraph serializes the text format.
	WriteGraph = tgraph.Write
	// WriteGraphFile serializes a graph to a file.
	WriteGraphFile = tgraph.WriteFile
	// TransitExample builds the paper's Fig. 1 transit network.
	TransitExample = tgraph.TransitExample
	// SliceGraph materializes the sub-graph restricted to a time window.
	SliceGraph = tgraph.Slice
	// OpenGraphFile loads a graph file in either format (text or
	// snapshot), sniffing the magic header. A snapshot is memory-mapped;
	// a text file parses into the heap with a no-op Close.
	OpenGraphFile = tgraph.OpenAnyFile
	// WriteSnapshotFile serializes a graph in the mmap-able snapshot
	// format (DESIGN.md §17).
	WriteSnapshotFile = tgraph.WriteSnapshotFile
	// OpenSnapshot memory-maps a snapshot file, verifying every
	// section CRC; the adjacency and index arrays alias the mapping.
	OpenSnapshot = tgraph.OpenMapped
)

// Streaming ingestion: build temporal graphs from timestamped event logs.
type (
	// StreamEvent is one timestamped graph mutation.
	StreamEvent = stream.Event
	// StreamAccumulator folds events into a materializable graph.
	StreamAccumulator = stream.Accumulator
)

var (
	// NewStreamAccumulator returns an empty event accumulator.
	NewStreamAccumulator = stream.NewAccumulator
	// ReadEventLog parses a text event log into an accumulator.
	ReadEventLog = stream.ReadLog
)

// Interval-centric programming model.
type (
	// Program is the user-facing ICM contract (Init / Compute / Scatter).
	Program = core.Program
	// VertexCtx is the interval-vertex handle passed to user logic.
	VertexCtx = core.VertexCtx
	// OutMsg is a scatter-produced message.
	OutMsg = core.OutMsg
	// Word is a message payload: an int64, a float64, an Int64Pair or nil held
	// inline in two 64-bit words, anything else through VertexCtx.Spill and
	// VertexCtx.Payload. Compute receives words, Emit and OutMsg send them.
	Word = codec.Word
	// Int64Pair is the two-field message payload a Word holds inline.
	Int64Pair = codec.Int64Pair
	// Options configures an ICM run.
	Options = core.Options
	// Result is an ICM run's outcome.
	Result = core.Result
	// PartitionedState is an interval vertex's dynamic state.
	PartitionedState = core.PartitionedState
)

// Run executes an ICM program over a temporal graph.
var Run = core.Run

// Word constructors; Word.Int, Word.Float and Word.Pair read them back.
var (
	IntWord   = codec.IntWord
	FloatWord = codec.FloatWord
	PairWord  = codec.PairWord
)

// Message payload codecs — required by Options.PayloadCodec whenever a
// Transport is configured (batches must serialize to cross a wire).
type (
	// PayloadCodec encodes and decodes message payload values.
	PayloadCodec = codec.Payload
	// Int64Codec is the var-byte int64 payload codec.
	Int64Codec = codec.Int64
	// Float64Codec is the fixed 8-byte float64 payload codec.
	Float64Codec = codec.Float64
	// Int64SliceCodec is the length-prefixed []int64 payload codec.
	Int64SliceCodec = codec.Int64Slice
	// PairCodec is the two-varint Int64Pair payload codec.
	PairCodec = codec.PairCodec
)

// Transports and typed failures.
type (
	// Transport ships encoded message batches between BSP workers.
	Transport = engine.Transport
	// VertexPanicError reports a recovered user-program panic with the
	// vertex, superstep and stack that produced it.
	VertexPanicError = engine.VertexPanicError
)

// NewTCPTransport wires n workers into a loopback TCP mesh.
var NewTCPTransport = engine.NewTCPTransport

// ErrRecoveryExhausted wraps a cluster run's error once it has lost more
// workers than the ClusterConfig.MaxRecoveries budget allows.
var ErrRecoveryExhausted = engine.ErrRecoveryExhausted

// PartitionBalanced builds a skew-aware partitioner for Options.Partitioner
// (the default is index-modulo placement; see DESIGN.md §13): greedy
// bin-packing of vertices onto workers by per-vertex work weights, typically
// Graph.WorkWeights (Σ out-degree · lifespan length).
var PartitionBalanced = engine.PartitionBalanced

// Observability: the metrics registry, the per-superstep trace stream and
// its sinks. Set Options.Tracer and/or Options.Registry to instrument a
// run; render or validate JSONL traces with the graphite-trace command or
// ParseTrace/ValidateTrace/Summarize here.
type (
	// Tracer receives typed per-superstep events from a run.
	Tracer = obs.Tracer
	// TraceEvent is one typed trace record.
	TraceEvent = obs.Event
	// MetricsRegistry is the named counter/gauge/histogram collection the
	// engine and the ICM runtime publish into.
	MetricsRegistry = obs.Registry
	// TraceRecorder keeps a run's events in memory.
	TraceRecorder = obs.Recorder
	// JSONLTracer streams events to a JSONL file or writer.
	JSONLTracer = obs.JSONLTracer
	// TraceSummary is a trace folded into per-superstep breakdown rows.
	TraceSummary = obs.Summary
)

var (
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewJSONLTracer streams trace events to a writer.
	NewJSONLTracer = obs.NewJSONLTracer
	// CreateJSONLTrace creates a JSONL trace file.
	CreateJSONLTrace = obs.CreateJSONLTrace
	// MultiTrace fans events out to several tracers.
	MultiTrace = func(ts ...obs.Tracer) obs.Tracer { return obs.MultiTracer(ts) }
	// ParseTrace reads a JSONL trace back into typed events.
	ParseTrace = obs.ParseTrace
	// ValidateTrace checks a trace's schema and totals reconciliation.
	ValidateTrace = obs.ValidateTrace
	// SummarizeTrace folds events into the per-superstep breakdown.
	SummarizeTrace = obs.Summarize
	// SplitTraceRuns splits a multi-run trace into its runs, each from a
	// run_start to its run_end.
	SplitTraceRuns = obs.SplitRuns
	// ServeDebug serves /metrics (the registry, as Prometheus text) and
	// /debug/pprof on addr until the returned server is closed.
	ServeDebug = obs.ServeDebug
)

// Time-warp operators.
type (
	// WarpTuple is one output triple of the warp operator.
	WarpTuple = warp.Tuple
	// WarpInput pairs an interval with a value.
	WarpInput = warp.IntervalValue
)

var (
	// Warp computes the time-warp of two interval/value sets.
	Warp = warp.Warp
	// WarpCombined is Warp with an inline combiner.
	WarpCombined = warp.WarpCombined
	// TimeJoin computes the temporal natural join.
	TimeJoin = warp.TimeJoin
)

// The twelve algorithms of the paper, ready to run.
var (
	// RunBFS runs time-independent breadth-first search.
	RunBFS = algorithms.RunBFS
	// RunWCC runs weakly connected components.
	RunWCC = algorithms.RunWCC
	// RunSCC runs strongly connected components.
	RunSCC = algorithms.RunSCC
	// RunPageRank runs PageRank with a fixed iteration budget.
	RunPageRank = algorithms.RunPageRank
	// RunSSSP runs temporal single-source shortest path (Alg. 1).
	RunSSSP = algorithms.RunSSSP
	// RunEAT runs earliest arrival time.
	RunEAT = algorithms.RunEAT
	// RunFAST runs the fastest-journey algorithm.
	RunFAST = algorithms.RunFAST
	// RunLD runs latest departure (reverse traversal).
	RunLD = algorithms.RunLD
	// RunTMST runs the time-minimum spanning tree.
	RunTMST = algorithms.RunTMST
	// RunRH runs time-respecting reachability.
	RunRH = algorithms.RunRH
	// RunLCC runs the temporal local clustering coefficient.
	RunLCC = algorithms.RunLCC
	// RunTC runs temporal triangle counting.
	RunTC = algorithms.RunTC
	// RunFFM runs temporal feed-forward motif counting (an extension: the
	// transaction-network pattern the paper's introduction motivates).
	RunFFM = algorithms.RunFFM
)

// AlgorithmParams parameterizes the algorithm catalog: source/target
// vertices, start time, deadline and iteration budget (zero values pick
// sensible defaults).
type AlgorithmParams = algorithms.Params

var (
	// NewAlgorithm builds a named catalog algorithm ("bfs", "sssp", ...)
	// with its canonical Options — the seam for attaching Options.Tracer or
	// Options.Registry to a packaged algorithm before graphite.Run.
	NewAlgorithm = algorithms.New
	// AlgorithmNames lists the catalog names.
	AlgorithmNames = algorithms.Names
)

// Result decoders.
var (
	// SSSPCosts decodes per-arrival-interval travel costs.
	SSSPCosts = algorithms.SSSPCosts
	// BFSLevels decodes per-interval BFS levels.
	BFSLevels = algorithms.BFSLevels
	// WCCLabels decodes per-interval component labels.
	WCCLabels = algorithms.WCCLabels
	// SCCLabels decodes per-interval strongly-connected components.
	SCCLabels = algorithms.SCCLabels
	// EarliestArrival returns a vertex's earliest arrival time.
	EarliestArrival = algorithms.EarliestArrival
	// FastestDuration returns a vertex's fastest journey duration.
	FastestDuration = algorithms.FastestDuration
	// LatestDeparture returns a vertex's latest valid departure.
	LatestDeparture = algorithms.LatestDeparture
	// Reachable reports time-respecting reachability.
	Reachable = algorithms.Reachable
	// TMSTTree extracts the earliest-arrival tree.
	TMSTTree = algorithms.TMSTTree
	// TriangleTotal counts directed 3-cycles at a time-point.
	TriangleTotal = algorithms.TriangleTotal
	// Coefficient returns a vertex's clustering coefficient at a time-point.
	Coefficient = algorithms.Coefficient
	// FFMTotal counts feed-forward motifs across the graph.
	FFMTotal = algorithms.FFMTotal
)

// Unreachable is the sentinel cost/time for vertices no journey reaches.
const Unreachable = algorithms.Unreachable

// The serving layer: a resident query service over pre-loaded temporal
// graphs. Build one with NewQueryServer, mount QueryServer.Handler on any
// net/http server (cmd/graphite-serve is the packaged daemon), stop with
// Drain then Close.
type (
	// QueryServer is a resident temporal graph query service with admission
	// control, an LRU result cache, singleflight dedup of identical in-flight
	// requests, and cooperative run cancellation.
	QueryServer = serve.Server
	// QueryServerConfig parameterizes a QueryServer.
	QueryServerConfig = serve.Config
	// QueryRequest is one run request against a served graph.
	QueryRequest = serve.RunRequest
	// QueryResult is a served run outcome. Its Vertices hold the rendered
	// JSON array; Vertices.Decode returns the per-vertex parts and
	// FormatLines the lines graphite-run prints.
	QueryResult = serve.RunResult
	// QueryWindow restricts a request to a time window.
	QueryWindow = serve.Window
	// QueryJob is the API view of an asynchronous run.
	QueryJob = serve.JobView
)

var (
	// NewQueryServer builds a query service over pre-loaded graphs.
	NewQueryServer = serve.New
	// QueryFingerprint is the canonical cache key of a (graph, algorithm,
	// params, window) request; semantically identical requests share it.
	QueryFingerprint = serve.Fingerprint
	// FormatResult renders a run's per-vertex states exactly as
	// cmd/graphite-run prints them.
	FormatResult = serve.FormatResult
)

// Typed serving errors, and the engine-level cancellation sentinel every
// aborted run (deadline, disconnect, shutdown) surfaces.
var (
	// ErrRunCanceled marks a run aborted at a superstep barrier by its
	// context, distinct from every fault-tolerance error.
	ErrRunCanceled = engine.ErrCanceled
	// ErrServerBusy is the admission-control rejection (HTTP 429).
	ErrServerBusy = serve.ErrBusy
	// ErrServerDraining rejects new work during graceful shutdown (503).
	ErrServerDraining = serve.ErrDraining
)

// The cluster runtime: a coordinator process drives worker processes over
// framed TCP — shard assignment, distributed superstep barriers, heartbeat
// leases, durable checkpoints, and rollback-and-replay recovery that
// survives kill -9 with bit-identical results (DESIGN.md §14).
type (
	// ClusterCoordinator registers workers, drives supersteps and recovers
	// from worker deaths. Create with NewClusterCoordinator, run with Serve.
	ClusterCoordinator = cluster.Coordinator
	// ClusterConfig parameterizes a cluster run (graph spec, algorithm,
	// checkpoint cadence, lease, recovery budgets).
	ClusterConfig = cluster.Config
	// ClusterReport summarizes a finished cluster run, recoveries included.
	ClusterReport = cluster.Report
	// ClusterRecoveryInfo describes one rollback-and-replay cycle: detection
	// latency, MTTR, replayed supersteps, restored checkpoint bytes.
	ClusterRecoveryInfo = cluster.RecoveryInfo
	// ClusterStats is the coordinator's point-in-time readiness view.
	ClusterStats = cluster.Stats
	// ClusterWorkerConfig parameterizes one worker process.
	ClusterWorkerConfig = cluster.WorkerConfig
	// CrashPlan plants a self-SIGKILL at a phase:superstep point (the
	// fault-injection contract of the kill-9 tests and GRAPHITE_CRASH).
	CrashPlan = cluster.CrashPlan
	// CheckpointStore is the durable, CRC-verified, generation-versioned
	// on-disk checkpoint store workers persist their shard state into.
	CheckpointStore = engine.CheckpointStore
	// CheckpointMeta describes one stored checkpoint generation.
	CheckpointMeta = engine.CheckpointMeta
	// WorkerFleet supervises real worker child processes and respawns the
	// ones that die uncleanly — the process-level chaos harness.
	WorkerFleet = chaos.Fleet
	// WorkerFleetConfig parameterizes a WorkerFleet.
	WorkerFleetConfig = chaos.FleetConfig
)

var (
	// NewClusterCoordinator validates a ClusterConfig and builds the
	// coordinator; Serve on a listener runs the cluster to completion.
	NewClusterCoordinator = cluster.New
	// RunClusterWorker dials a coordinator and works until the run ends.
	RunClusterWorker = cluster.RunWorker
	// ParseCrashPlan parses "phase:superstep" (compute, checkpoint, barrier).
	ParseCrashPlan = cluster.ParseCrashPlan
	// OpenCheckpointStore opens (or creates) a checkpoint directory.
	OpenCheckpointStore = engine.OpenCheckpointStore
	// RetryDelay is the jittered capped-exponential backoff schedule shared
	// by transport dialing and the cluster worker's coordinator dial.
	RetryDelay = engine.RetryDelay
	// StartWorkerFleet spawns supervised worker child processes;
	// RunChildWorker must be called first thing in the binary's main.
	StartWorkerFleet = chaos.StartFleet
	// RunChildWorker turns a re-executed binary into a cluster worker when
	// the fleet's environment marker is present, and returns otherwise.
	RunChildWorker = chaos.RunChildWorker
)
