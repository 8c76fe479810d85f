// Package vcm implements a plain, non-temporal vertex-centric computing
// model over the BSP engine, scoped to a single snapshot of a temporal
// graph. It is the substrate the baseline platforms of Sec. VII-A3 are built
// from: MSB runs one vcm execution per snapshot, Chlonos batches snapshots
// with shared interval messages (providing its own Ctx), and parts of TGB
// reuse the same programs over transformed graphs.
package vcm

import (
	"graphite/internal/codec"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// Ctx is the per-vertex execution surface handed to Program logic. Each
// baseline provides its own implementation (single snapshot here; per-batch
// snapshot slices in Chlonos).
type Ctx interface {
	// Vertex returns the dense vertex index.
	Vertex() int
	// ID returns the vertex id.
	ID() tgraph.VertexID
	// Superstep returns the 1-based superstep.
	Superstep() int
	// Phase returns the master-set phase.
	Phase() int
	// Time returns the snapshot time-point being computed.
	Time() ival.Time
	// NumVertices returns the total vertex count of the temporal graph.
	NumVertices() int
	// State returns this vertex's state for the current snapshot.
	State() any
	// SetState replaces this vertex's state for the current snapshot.
	SetState(v any)
	// OutEdges calls fn for every out-edge alive in the snapshot.
	OutEdges(fn func(e *tgraph.Edge, dst int))
	// InEdges calls fn for every in-edge alive in the snapshot.
	InEdges(fn func(e *tgraph.Edge, src int))
	// OutEdgesSimple calls fn with the destination of every alive out-edge.
	OutEdgesSimple(fn func(dst int))
	// InEdgesSimple calls fn with the source of every alive in-edge.
	InEdgesSimple(fn func(src int))
	// OutDegree returns the number of alive out-edges.
	OutDegree() int
	// Send queues a message for the next superstep, scoped to this snapshot.
	Send(dst int, value any)
	// Aggregate contributes a word to a named aggregator; the master reads
	// the merged value at the next barrier.
	Aggregate(name string, v codec.Word)
}

// Program is a snapshot-scoped vertex program. Init runs in superstep 1 on
// every active vertex with no messages; Compute runs on vertices activated
// by messages in later supersteps.
type Program interface {
	Init(ctx Ctx)
	Compute(ctx Ctx, msgs []any)
}

// Options configures a snapshot run.
type Options struct {
	NumWorkers    int
	MaxSupersteps int
	ActivateAll   bool
	Combine       engine.Combiner
	PayloadCodec  codec.Payload
	Aggregators   map[string]*engine.Aggregator
	Master        engine.Master
}

// Result holds the per-vertex final states of one snapshot run.
type Result struct {
	Metrics *obs.RunEnd
	states  []any
}

// State returns the final state of the vertex at dense index v (nil when
// the vertex was inactive in the snapshot).
func (r *Result) State(v int) any { return r.states[v] }

// snapCtx is the single-snapshot Ctx implementation.
type snapCtx struct {
	rt  *runtime
	eng *engine.Context
	idx int
}

func (c *snapCtx) Vertex() int         { return c.idx }
func (c *snapCtx) ID() tgraph.VertexID { return c.rt.snap.G.VertexAt(c.idx).ID }
func (c *snapCtx) Superstep() int      { return c.eng.Superstep() }
func (c *snapCtx) Phase() int          { return c.eng.Phase() }
func (c *snapCtx) Time() ival.Time     { return c.rt.snap.T }
func (c *snapCtx) NumVertices() int    { return c.rt.snap.G.NumVertices() }
func (c *snapCtx) State() any          { return c.rt.states[c.idx] }
func (c *snapCtx) SetState(v any)      { c.rt.states[c.idx] = v }

func (c *snapCtx) OutEdges(fn func(e *tgraph.Edge, dst int)) {
	c.rt.snap.OutEdgesIdx(c.idx, fn)
}

func (c *snapCtx) InEdges(fn func(e *tgraph.Edge, src int)) {
	c.rt.snap.InEdgesIdx(c.idx, fn)
}

func (c *snapCtx) OutEdgesSimple(fn func(dst int)) {
	c.OutEdges(func(_ *tgraph.Edge, dst int) { fn(dst) })
}

func (c *snapCtx) InEdgesSimple(fn func(src int)) {
	c.InEdges(func(_ *tgraph.Edge, src int) { fn(src) })
}

func (c *snapCtx) OutDegree() int { return c.rt.snap.G.OutDegreeAt(c.idx, c.rt.snap.T) }

func (c *snapCtx) Send(dst int, value any) {
	c.eng.Send(dst, ival.Point(c.rt.snap.T), value)
}

func (c *snapCtx) Aggregate(name string, v codec.Word) { c.eng.Aggregate(name, v) }

// runtime adapts a Program to the engine for one snapshot.
type runtime struct {
	snap   tgraph.Snapshot
	prog   Program
	states []any
}

// Init implements engine.Program; user init runs in superstep 1 so its
// sends land at the first barrier.
func (rt *runtime) Init(ctx *engine.Context) {}

// Run implements engine.Program.
func (rt *runtime) Run(ctx *engine.Context, msgs []engine.Message) {
	i := ctx.Vertex()
	if !rt.snap.VertexActive(i) {
		return
	}
	c := snapCtx{rt: rt, eng: ctx, idx: i}
	if ctx.Superstep() == 1 {
		ctx.AddComputeCalls(1)
		rt.prog.Init(&c)
		return
	}
	vals := make([]any, len(msgs))
	for k, m := range msgs {
		vals[k] = ctx.Payload(m)
	}
	ctx.AddComputeCalls(1)
	rt.prog.Compute(&c, vals)
}

// RunSnapshot executes a vertex-centric program over the snapshot at time t.
func RunSnapshot(g *tgraph.Graph, t ival.Time, prog Program, opts Options) (*Result, error) {
	rt := &runtime{snap: g.SnapshotAt(t), prog: prog, states: make([]any, g.NumVertices())}
	cfg := engine.Config{
		NumWorkers:    opts.NumWorkers,
		MaxSupersteps: opts.MaxSupersteps,
		ActivateAll:   opts.ActivateAll,
		PayloadCodec:  opts.PayloadCodec,
		Aggregators:   opts.Aggregators,
		Master:        opts.Master,
		Combiner:      opts.Combine,
	}
	eng, err := engine.New(g.NumVertices(), rt, cfg)
	if err != nil {
		return nil, err
	}
	m, err := eng.Run()
	if err != nil {
		return nil, err
	}
	return &Result{Metrics: m, states: rt.states}, nil
}
