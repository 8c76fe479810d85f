package core

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"graphite/internal/codec"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// Program is the user-facing interval-centric contract (Sec. IV-A3).
//
// Init runs once per vertex before superstep 1 and must set the initial
// state for the vertex's entire lifespan. Compute runs once per time-warp
// tuple — an active sub-interval of the vertex, the prior state value for
// exactly that sub-interval, and the messages grouped onto it — and may
// update state for sub-intervals of t via VertexCtx.SetState. Scatter runs
// once per overlapping sub-interval of an updated state and an out-edge
// property partition, and returns the messages to send to the edge's
// destination (nil payloads are allowed; a nil slice sends nothing).
//
// A message payload is a codec.Word: an int64, a float64, a codec.Int64Pair
// or nil held inline (codec.IntWord, FloatWord, PairWord; Word.Int, Float,
// Pair), anything else through VertexCtx.Spill and VertexCtx.Payload. State
// values stay any.
type Program interface {
	Init(v *VertexCtx)
	Compute(v *VertexCtx, t ival.Interval, state any, msgs []codec.Word)
	Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg
}

// WarpCombiner is an optional Program extension (Sec. VI "Inline Warp
// Combiner"): when implemented, message groups are folded during the warp
// sweep and Compute receives a single combined message per tuple. The fold
// must be commutative and associative, and is for payloads held inline: a
// spilled one is never handed to it. Unless Options.DisableWarpCombiner is
// set it also folds messages for one vertex and interval before they reach
// an inbox: each worker folds its batches when its compute phase ends, and
// the receiver folds the batches of different workers together on arrival.
type WarpCombiner interface {
	CombineWarp(a, b codec.Word) codec.Word
}

// StateCoder is an optional Program extension for a program whose state
// values are not values of its Options.PayloadCodec: checkpoints and result
// collection encode its states with the codec StateCodec returns instead. A
// decoded state must be reflect.DeepEqual to the one encoded.
type StateCoder interface {
	StateCodec() codec.Payload
}

// StateCodecOf returns the codec prog's states travel in — its StateCoder's,
// else opts.PayloadCodec — which is what AssembleResult decodes them with.
func StateCodecOf(prog Program, opts Options) codec.Payload {
	if sc, ok := prog.(StateCoder); ok {
		return sc.StateCodec()
	}
	return opts.PayloadCodec
}

// OutMsg is a message produced by Scatter. A zero When inherits the scatter
// sub-interval, matching the paper's default τm = τ'k.
type OutMsg struct {
	When  ival.Interval
	Value codec.Word
}

// DefaultSuppressionThreshold is the unit-length message fraction above
// which warp is bypassed (Sec. VI "Warp Suppression").
const DefaultSuppressionThreshold = 0.70

// Options configures an ICM run.
type Options struct {
	// NumWorkers is the BSP worker ("machine") count; 0 means GOMAXPROCS.
	NumWorkers int
	// MaxSupersteps bounds the run (e.g. PageRank's fixed iteration count).
	MaxSupersteps int
	// ActivateAll keeps all vertices active every superstep; Compute is
	// then also invoked on message-less vertices once per partition with an
	// empty group.
	ActivateAll bool
	// Partitioner overrides the engine's vertex→worker assignment; nil means
	// index-modulo hashing. See engine.PartitionBalanced for a skew-aware
	// static assignment built from tgraph.Graph.WorkWeights.
	Partitioner func(vertex, numWorkers int) int
	// Reverse scatters along in-edges instead of out-edges (Latest
	// Departure traverses sink-to-source in space and time).
	Reverse bool
	// Undirected scatters along both out- and in-edges, sending to the far
	// endpoint (connectivity algorithms treat edges as undirected).
	Undirected bool
	// ScatterSlackLabel names an edge property whose value widens the
	// scatter trigger: a state update matches an edge piece when it
	// intersects the piece translated forward by the property's value.
	// Reverse-traversal algorithms set this to the travel-time label — an
	// update over *arrival* times must trigger scatter on the *departure*
	// windows that can produce those arrivals.
	ScatterSlackLabel string
	// PropLabels are the edge property labels whose value boundaries
	// partition scatter intervals. Empty means all labels on each edge.
	PropLabels []string
	// Window restricts the run to a time window without deriving a graph:
	// every vertex lives for its lifespan ∩ Window — what Init, Lifespan,
	// SetState, the message clip and a seed overlay see — a vertex the window
	// leaves nothing of gets no state, no Init and no compute and is absent
	// from the Result, and scatter runs over the graph's own memoised plan,
	// with ScatterPiece clipped to the window and a slack-translated trigger
	// taken from the clipped piece.
	// VertexCtx.NumVertices counts the vertices the window keeps.
	// VertexCtx.Graph and Vertex, and the Edge handed to Scatter, still show
	// the whole graph, so a program clips what it reads there to the interval
	// it was called for — which lies inside the window; then its states and
	// counts equal a run over tgraph.Slice(g, Window) that puts each vertex on
	// the worker its index in g is given (the slice renumbers). Every catalog
	// algorithm follows that rule. A ScatterSlackLabel must be constant over a
	// piece, as one named in PropLabels is. The zero value and any window
	// containing the graph's lifespan mean no window.
	Window ival.Interval
	// DisableWarp bypasses the warp operator unconditionally, degenerating
	// to time-point-centric execution: the no-warp cells of the execution
	// matrix (TestWindowViewMatchesSliceOracle) hold the warped runs to it.
	DisableWarp bool
	// DisableSuppression turns automatic warp suppression off.
	DisableSuppression bool
	// DisableWarpCombiner ignores the program's WarpCombiner (Fig. 6(b)), in
	// the warp sweep and before delivery alike.
	DisableWarpCombiner bool
	// PayloadCodec encodes message payloads — for byte accounting, over a
	// Transport, between cluster shards and into checkpoints — and, unless
	// the program is a StateCoder, state values too.
	PayloadCodec codec.Payload
	// Transport routes every cross-worker batch through a real transport (e.g.
	// engine.NewTCPTransport's), the result unchanged; requires PayloadCodec.
	Transport engine.Transport
	// Aggregators are the named word aggregators vertices contribute to
	// (VertexCtx.Aggregate) and the master reads.
	Aggregators map[string]*engine.Aggregator
	// Master is the optional master-compute hook (phased algorithms), run by
	// the barrier closing each superstep: Run's, or NewBarrier's for shards.
	Master engine.Master
	// CheckInvariants re-verifies the partitioned-state invariant after
	// every compute call (tests and debugging).
	CheckInvariants bool
	// WrapProgram, when set, wraps the engine-level program a run or a shard
	// executes: the seam tests use to count, record or fault the vertex runs
	// of an otherwise unmodified ICM run.
	WrapProgram func(engine.Program) engine.Program
	// Context, when set, makes the run cancellable: cancellation is observed
	// at superstep barriers and surfaces as an error wrapping
	// engine.ErrCanceled (engine.Config.Context). The serving layer uses this
	// to abort timed-out or disconnected requests mid-run.
	Context context.Context
	// Tracer, when set, receives the engine's per-superstep event stream
	// augmented with the ICM layer's warp statistics (a WarpStats event per
	// superstep, emitted just before superstep_end).
	Tracer obs.Tracer
	// Registry, when set, is handed to the engine for its counters and also
	// receives the run's ICM stats (warp calls, suppression, state updates).
	Registry *obs.Registry
	// Span, when set, is the run-scoped span ID stamped on the trace's
	// run_start (engine.Config.Span): the serve layer and the cluster
	// protocol propagate it so one query correlates across processes.
	Span string
	// SeedStates starts the run from captured terminal state instead of a
	// cold start — the incremental-recomputation hook. Entry i aligns with
	// dense vertex index i of the run's graph; a non-nil entry is overlaid
	// onto that vertex's state after Init (clipped to the vertex lifespan,
	// with the final partition's value extended over any lifespan growth),
	// and at superstep 1 the vertex skips Compute and re-scatters its
	// entire seeded state, regenerating the messages a full run would have
	// produced from those partitions. Nil entries (and nil slices) run the
	// normal cold path.
	//
	// Only programs whose state is a confluent monotone fold of
	// forward-in-time messages — each update covering [t, lifespan end) so
	// terminal partition starts coincide with update starts — replay
	// bit-identically from a seed; see algorithms.SupportsIncremental. For
	// such a program that is also a WarpCombiner, a superstep-1 message to a
	// seeded vertex is not sent when the seed absorbs it — combine(s, m) == s
	// at every point of the message inside the vertex's lifespan, s the value
	// the overlay puts there — since delivered it could change no state: the
	// results are those of sending it, the message and compute counts lower.
	SeedStates []*PartitionedState
}

// Stats counts ICM-specific runtime events.
type Stats struct {
	WarpCalls       int64 // warp invocations over message groups
	WarpSuppressed  int64 // vertices×supersteps that took the point path
	StateUpdates    int64 // SetState calls
	MaxPartitions   int   // largest partition count seen on any vertex
	ActiveIntervals int64 // total warp tuples (active vertex intervals)
}

// Result is the outcome of an ICM run. Under Options.Window the vertices the
// window dropped have no state: nil is how a Result, and a Seed taken from
// it, carry the window.
type Result struct {
	Graph   *tgraph.Graph
	Metrics *obs.RunEnd
	Stats   Stats
	states  []*PartitionedState
}

// State returns the final partitioned state of the vertex at dense index i,
// or nil if the run's window dropped it.
func (r *Result) State(i int) *PartitionedState { return r.states[i] }

// StateByID returns the final state of a vertex by id, or nil if absent from
// the graph or from the run's window.
func (r *Result) StateByID(id tgraph.VertexID) *PartitionedState {
	i := r.Graph.IndexOf(id)
	if i < 0 {
		return nil
	}
	return r.states[i]
}

// ByID iterates over the vertices the run kept and their final states, in
// ascending id order: the graph's own id index walked rank by rank, the
// vertices the run's window dropped passed over.
func (r *Result) ByID() iter.Seq2[*tgraph.Vertex, *PartitionedState] {
	return func(yield func(*tgraph.Vertex, *PartitionedState) bool) {
		for rank := range r.states {
			i := r.Graph.IndexByRank(rank)
			if st := r.states[i]; st != nil && !yield(r.Graph.VertexAt(i), st) {
				return
			}
		}
	}
}

// Seed is the terminal vertex states of a finished run, keyed by vertex id
// and detached from the run's graph: whoever retains one (the serve layer's
// seed cache) keeps the states alive and nothing else — not the graph the
// run was over, nor what is memoised on it.
type Seed struct {
	ids    []tgraph.VertexID
	states []*PartitionedState
}

// Seed captures the run's terminal states for seeding later runs.
func (r *Result) Seed() *Seed {
	ids := make([]tgraph.VertexID, len(r.states))
	for i := range ids {
		ids[i] = r.Graph.VertexAt(i).ID
	}
	return &Seed{ids: ids, states: r.states}
}

// StatesFor builds the Options.SeedStates slice for running over g by
// carrying each vertex's terminal state out of the prior run, matched by
// vertex ID; vertices g has that the prior run lacked stay unseeded (nil).
// The prior run's graph must agree with g below its own time cut — the
// serve layer guarantees this by only seeding window extensions of the
// same epoch-stable graph.
func (s *Seed) StatesFor(g *tgraph.Graph) []*PartitionedState {
	seeds := make([]*PartitionedState, g.NumVertices())
	for i, id := range s.ids {
		// A windowed run over the same graph, or over a later epoch that only
		// appended vertices, finds every id at its old index.
		if i < len(seeds) && g.VertexAt(i).ID == id {
			seeds[i] = s.states[i]
		} else if j := g.IndexOf(id); j >= 0 {
			seeds[j] = s.states[i]
		}
	}
	return seeds
}

// Run executes an ICM program over a temporal graph.
func Run(g *tgraph.Graph, prog Program, opts Options) (*Result, error) {
	rt, eprog, cfg, err := prepare(g, prog, opts)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(g.NumVertices(), eprog, cfg)
	if err != nil {
		return nil, err
	}
	m, err := eng.Run()
	if err != nil {
		return nil, err
	}
	s := rt.statsSnapshot()
	if opts.Registry != nil {
		publishStats(opts.Registry, s)
	}
	return &Result{Graph: g, Metrics: m, Stats: s, states: rt.states}, nil
}

// prepare is the set-up Run and NewShard share: the runtime over g, the
// program the engine runs — WrapProgram applied — and its configuration.
func prepare(g *tgraph.Graph, prog Program, opts Options) (*runtime, engine.Program, engine.Config, error) {
	if g.NumVertices() == 0 {
		return nil, nil, engine.Config{}, errors.New("core: empty graph")
	}
	rt := newRuntime(g, prog, opts)
	if rt.nv == 0 {
		return nil, nil, engine.Config{}, fmt.Errorf("core: window %v contains no vertices", rt.window)
	}
	cfg := engineConfig(opts)
	if opts.Tracer != nil {
		rt.traced = true
		cfg.Tracer = &icmTracer{rt: rt, next: opts.Tracer}
	}
	if rt.combine != nil {
		cfg.Combiner = engine.Combiner(rt.combine)
	}
	var eprog engine.Program = rt
	if opts.WrapProgram != nil {
		eprog = opts.WrapProgram(rt)
	}
	return rt, eprog, cfg, nil
}

// engineConfig is the engine configuration opts map to, for a run, a shard
// and the barrier closing either's supersteps alike.
func engineConfig(opts Options) engine.Config {
	return engine.Config{
		NumWorkers:    opts.NumWorkers,
		MaxSupersteps: opts.MaxSupersteps,
		ActivateAll:   opts.ActivateAll,
		Partitioner:   opts.Partitioner,
		PayloadCodec:  opts.PayloadCodec,
		Transport:     opts.Transport,
		Aggregators:   opts.Aggregators,
		Master:        opts.Master,
		Registry:      opts.Registry,
		Context:       opts.Context,
		Span:          opts.Span,
	}
}
