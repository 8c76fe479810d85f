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

func (a *ssspGateProg) Compute(v *VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
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
		if c := m.Int(); c < best {
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
	v.Emit(ival.From(ival.SatAdd(t.Start, tt)), codec.IntWord(cost+tc))
	return nil
}

func (a *ssspGateProg) CombineWarp(x, y codec.Word) codec.Word {
	if x.Int() < y.Int() {
		return x
	}
	return y
}

// prGateProg mirrors algorithms.PageRank: all vertices forced active, bounded
// message intervals carrying float64 rank mass, a fixed superstep budget. On
// the transit fixture most edges live for a single time-point, so the unit
// fraction trips warp suppression and this program gates the scratch-backed
// point-groups path plus the lifespan gap filling — with its sum combiner,
// every result of which is a value that did not exist before: one heap object
// each when a message was an any, nothing now that it is a word.
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

func (a *prGateProg) Compute(v *VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	n := float64(v.NumVertices())
	if v.Superstep() == 1 {
		v.SetState(t, 1.0/n)
		return
	}
	var sum float64
	for _, m := range msgs {
		sum += m.Float()
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
		v.Emit(x, codec.FloatWord(rank/float64(dp.deg)))
	}
	return nil
}

func (a *prGateProg) CombineWarp(x, y codec.Word) codec.Word {
	return codec.FloatWord(x.Float() + y.Float())
}

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
			rt.align(ws, rt.states[r.vertex], nil, r.msgs, r.superstep) // no inbox spilled: no context to read from
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
			NumWorkers:   2,
			PropLabels:   []string{tgraph.PropTravelTime, tgraph.PropTravelCost},
			PayloadCodec: codec.Int64{},
		})
}

// TestAlignNoAllocsPageRankTransit gates the warp phase of PageRank on the
// transit fixture: all-active alignment of bounded, mostly unit message
// intervals (the suppressed point-groups path) with lifespan gap filling,
// folding each group with the sum combiner.
func TestAlignNoAllocsPageRankTransit(t *testing.T) {
	prog := newPRGateProg(tgraph.TransitExample(), 5)
	runAlignGate(t, prog,
		Options{
			NumWorkers:    2,
			ActivateAll:   true,
			MaxSupersteps: prog.iters + 1,
			PayloadCodec:  codec.Float64{},
		})
}

// steadyProg is PageRank's shape held in a steady state, for each kind of
// word: every vertex active every superstep, unit and bounded messages summed
// by the combiner at delivery and again in the sweep, Compute reading the
// folded word and Scatter emitting a value that did not exist before — past
// the runtime's static small-integer boxes where it is an integer. The one
// thing it does not do is change its state: SetState rewrites the same boxed
// value, which marks the interval updated (so Scatter runs) and allocates
// nothing, because vertex state is still an any and a new one would.
type steadyProg struct {
	kind  codec.Kind
	state any
	sink  int64
}

func (a *steadyProg) word(x int64) codec.Word {
	switch a.kind {
	case codec.KindFloat:
		return codec.FloatWord(float64(x) * 0.137)
	case codec.KindPair:
		return codec.PairWord(x, -x)
	}
	return codec.IntWord(x)
}

func (a *steadyProg) CombineWarp(x, y codec.Word) codec.Word {
	switch a.kind {
	case codec.KindFloat:
		return codec.FloatWord(x.Float() + y.Float())
	case codec.KindPair:
		return codec.PairWord(x.Pair().A+y.Pair().A, x.Pair().B+y.Pair().B)
	}
	return codec.IntWord(x.Int() + y.Int())
}

func (a *steadyProg) Init(v *VertexCtx) { v.SetState(v.Lifespan(), a.state) }

func (a *steadyProg) Compute(v *VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	for _, m := range msgs {
		a.sink += int64(m.A)
	}
	v.SetState(t, a.state)
}

func (a *steadyProg) Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg {
	v.Emit(ival.Interval{}, a.word(1000+int64(v.Superstep())*int64(e.ID+1)))
	return nil
}

// TestSuperstepNoAllocsSteadyState is the gate over the whole message path:
// one superstep of a one-shard run — align, Compute, Scatter, Emit, Send's
// accounting, the exchange and delivery under the receiver combiner — must
// not allocate, whichever kind of word the messages are. (A one-shard run has
// no batch to encode; TestOutboundAllocsPerBatch gates that.)
func TestSuperstepNoAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race")
	}
	kinds := []struct {
		kind  codec.Kind
		codec codec.Payload
	}{{codec.KindInt, codec.Int64{}}, {codec.KindFloat, codec.Float64{}}, {codec.KindPair, codec.PairCodec{}}}
	for _, k := range kinds {
		t.Run(k.kind.String(), func(t *testing.T) {
			prog := &steadyProg{kind: k.kind, state: int64(7)}
			sh, err := NewShard(tgraph.TransitExample(), prog, Options{
				NumWorkers: 1, ActivateAll: true, MaxSupersteps: 1 << 30,
				PayloadCodec: k.codec,
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			if err := sh.Init(); err != nil {
				t.Fatal(err)
			}
			var delivered int64
			step := func() {
				if err := sh.Compute(); err != nil {
					t.Fatal(err)
				}
				n, err := sh.Deliver(nil)
				if err != nil {
					t.Fatal(err)
				}
				delivered = n
				sh.Barrier()
			}
			for i := 0; i < 4; i++ {
				step()
			}
			if delivered == 0 || prog.sink == 0 {
				t.Fatalf("the fixture moves no messages (%d delivered, sink %d); the gate measured nothing", delivered, prog.sink)
			}
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Errorf("a steady-state superstep of %s messages allocates %.2f times, want 0", k.kind, allocs)
			}
		})
	}
}
