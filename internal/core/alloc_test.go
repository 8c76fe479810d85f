package core

import (
	"math"
	"sort"
	"sync"
	"testing"

	"graphite/internal/codec"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// The warp-phase half of the zero-allocation gate: real SSSP and PageRank
// runs on the transit fixture, with every steady-state inbox captured through
// the WrapProgram seam, then replayed through runtime.align against a warmed
// workspace. internal/algorithms depends on core, so the two programs are
// mirrored here; the algorithm-level results themselves are pinned by the
// tests in internal/algorithms.

const allocUnreachable = int64(math.MaxInt64)

// ssspGateProg mirrors algorithms.SSSP: unbounded [t, ∞) message intervals,
// int64 costs, min warp combiner; like it, it must run with PropLabels
// {travel-time, travel-cost}.
type ssspGateProg struct {
	source tgraph.VertexID
	start  ival.Time
}

func (a *ssspGateProg) Init(v *VertexCtx) { v.SetState(v.Lifespan(), allocUnreachable) }

func (a *ssspGateProg) Compute(v *VertexCtx, t ival.Interval, state any, msgs []any) {
	if v.Superstep() == 1 {
		if v.ID() == a.source {
			if at := t.Intersect(ival.From(a.start)); !at.IsEmpty() {
				v.SetState(at, int64(0))
			}
		}
		return
	}
	best := state.(int64)
	for _, m := range msgs {
		if c := m.(int64); c < best {
			best = c
		}
	}
	if best < state.(int64) {
		v.SetState(t, best)
	}
}

func (a *ssspGateProg) Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg {
	cost := state.(int64)
	if cost == allocUnreachable {
		return nil
	}
	tt, ok1 := v.PieceProp(0)
	tc, ok2 := v.PieceProp(1)
	if !ok1 || !ok2 {
		return nil
	}
	v.Emit(ival.From(ival.SatAdd(t.Start, tt)), cost+tc)
	return nil
}

func (a *ssspGateProg) CombineWarp(x, y any) any {
	if x.(int64) < y.(int64) {
		return x
	}
	return y
}

// prGateProg mirrors algorithms.PageRank: all vertices forced active, bounded
// message intervals carrying float64 rank mass, a fixed superstep budget. On
// the transit fixture most edges live for a single time-point, so the unit
// fraction trips warp suppression and this program gates the scratch-backed
// point-groups path plus the lifespan gap filling. The gate disables the warp
// combiner because a sum fold's one allocation is Go boxing the freshly
// summed float64 — a language-level cost of `any` payloads rather than a warp
// buffer; the combined fold machinery itself is gated by SSSP, whose min-fold
// returns an already boxed input.
type prGateProg struct {
	iters    int
	damping  float64
	degParts [][]prDegPart
}

type prDegPart struct {
	iv  ival.Interval
	deg int64
}

func newPRGateProg(g *tgraph.Graph, iters int) *prGateProg {
	a := &prGateProg{iters: iters, damping: 0.85, degParts: make([][]prDegPart, g.NumVertices())}
	for v := 0; v < g.NumVertices(); v++ {
		life := g.VertexAt(v).Lifespan
		bounds := []ival.Time{life.Start, life.End}
		for _, ei := range g.OutEdges(v) {
			if x := g.Edge(int(ei)).Lifespan.Intersect(life); !x.IsEmpty() {
				bounds = append(bounds, x.Start, x.End)
			}
		}
		sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
		for i := 0; i+1 < len(bounds); i++ {
			if bounds[i] == bounds[i+1] {
				continue
			}
			piece := ival.New(bounds[i], bounds[i+1])
			a.degParts[v] = append(a.degParts[v], prDegPart{iv: piece, deg: int64(g.OutDegreeAt(v, piece.Start))})
		}
	}
	return a
}

func (a *prGateProg) Init(v *VertexCtx) {
	v.SetState(v.Lifespan(), 1.0/float64(v.NumVertices()))
}

func (a *prGateProg) Compute(v *VertexCtx, t ival.Interval, state any, msgs []any) {
	n := float64(v.NumVertices())
	if v.Superstep() == 1 {
		v.SetState(t, 1.0/n)
		return
	}
	var sum float64
	for _, m := range msgs {
		sum += m.(float64)
	}
	v.SetState(t, (1-a.damping)/n+a.damping*sum)
}

func (a *prGateProg) Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg {
	if v.Superstep() > a.iters {
		return nil
	}
	rank := state.(float64)
	for _, dp := range a.degParts[v.Index()] {
		x := dp.iv.Intersect(t)
		if x.IsEmpty() || dp.deg == 0 {
			continue
		}
		v.Emit(x, rank/float64(dp.deg))
	}
	return nil
}

func (a *prGateProg) CombineWarp(x, y any) any { return x.(float64) + y.(float64) }

// alignRec is one captured steady-state inbox.
type alignRec struct {
	vertex    int
	superstep int
	msgs      []engine.Message
}

// inboxRecorder wraps the ICM runtime and copies every non-empty inbox from
// superstep 2 on, so the align path can be replayed outside the engine.
type inboxRecorder struct {
	inner engine.Program
	mu    sync.Mutex
	recs  []alignRec
}

func (r *inboxRecorder) Init(ctx *engine.Context) { r.inner.Init(ctx) }

func (r *inboxRecorder) Run(ctx *engine.Context, msgs []engine.Message) {
	if ctx.Superstep() >= 2 && len(msgs) > 0 {
		r.mu.Lock()
		r.recs = append(r.recs, alignRec{
			vertex:    ctx.Vertex(),
			superstep: ctx.Superstep(),
			msgs:      append([]engine.Message(nil), msgs...),
		})
		r.mu.Unlock()
	}
	r.inner.Run(ctx, msgs)
}

// runAlignGate runs prog on the transit fixture, then replays every captured
// steady-state inbox through runtime.align with a warmed workspace and
// requires zero allocations.
func runAlignGate(t *testing.T, prog Program, opts Options) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc gate skipped under -race: detector instrumentation and pool perturbation inflate alloc counts")
	}
	g := tgraph.TransitExample()
	rec := &inboxRecorder{}
	var rt *runtime
	opts.WrapProgram = func(p engine.Program) engine.Program {
		rt = p.(*runtime)
		rec.inner = p
		return rec
	}
	if _, err := Run(g, prog, opts); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rec.recs) == 0 {
		t.Fatal("no steady-state inboxes captured; the gate measured nothing")
	}
	ws := &workspace{}
	replay := func() {
		for _, r := range rec.recs {
			rt.align(ws, rt.states[r.vertex], r.msgs, r.superstep)
		}
	}
	replay() // grow the workspace to its working size
	if allocs := testing.AllocsPerRun(50, replay); allocs != 0 {
		t.Errorf("steady-state align over %d captured inboxes allocates %.2f per replay, want 0",
			len(rec.recs), allocs)
	}
}

// TestAlignNoAllocsSSSPTransit gates the warp phase of SSSP on the transit
// fixture: warp-combined alignment of unbounded message intervals.
func TestAlignNoAllocsSSSPTransit(t *testing.T) {
	runAlignGate(t, &ssspGateProg{source: 0, start: 1},
		Options{
			NumWorkers:      2,
			PropLabels:      []string{tgraph.PropTravelTime, tgraph.PropTravelCost},
			PayloadCodec:    codec.Int64{},
			ReceiverCombine: true,
		})
}

// TestAlignNoAllocsPageRankTransit gates the warp phase of PageRank on the
// transit fixture: all-active alignment of bounded, mostly unit message
// intervals (the suppressed point-groups path) with lifespan gap filling.
func TestAlignNoAllocsPageRankTransit(t *testing.T) {
	prog := newPRGateProg(tgraph.TransitExample(), 5)
	runAlignGate(t, prog,
		Options{
			NumWorkers:          2,
			ActivateAll:         true,
			MaxSupersteps:       prog.iters + 1,
			PayloadCodec:        codec.Float64{},
			DisableWarpCombiner: true,
		})
}
