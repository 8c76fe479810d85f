package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphite/internal/codec"
	"graphite/internal/engine"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// BenchmarkStateSet measures PartitionedState.Set on a state of P partitions
// of width 4 with pairwise distinct values. "overwrite" replaces one middle
// partition with a value neither neighbour holds, again and again: one
// located partition, two failed seam tests, nothing moved — the cost must not
// grow with P. "straddle" writes one value from inside a partition, across
// its right neighbour, into the one after (at P = 1: strictly inside the only
// partition), then writes the old values back piece by piece, so every op
// splits, drops or fuses partitions and moves the tail.
func BenchmarkStateSet(b *testing.B) {
	for _, p := range []int{1, 8, 64} {
		build := func() (*PartitionedState, []any) {
			s := NewPartitionedState(ival.New(0, ival.Time(4*p)), int64(0))
			vals := make([]any, p+2) // boxed once; Set takes any
			for i := range vals {
				vals[i] = int64(i)
			}
			for i := 1; i < p; i++ {
				s.Set(ival.New(ival.Time(4*i), ival.Time(4*i+4)), vals[i])
			}
			if s.NumParts() != p {
				b.Fatalf("built %d partitions, want %d", s.NumParts(), p)
			}
			return s, vals
		}
		b.Run(fmt.Sprintf("overwrite/P=%d", p), func(b *testing.B) {
			s, vals := build()
			mid := s.Parts()[p/2].Interval
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Set(mid, vals[p+(i&1)])
			}
			if s.NumParts() != p {
				b.Fatalf("overwrite changed the partition count to %d", s.NumParts())
			}
		})
		b.Run(fmt.Sprintf("straddle/P=%d", p), func(b *testing.B) {
			s, vals := build()
			first := max(0, p/2-1)
			last := min(p-1, first+2)
			across := ival.New(ival.Time(4*first+1), ival.Time(4*last+3))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Set(across, vals[p])
				for k := first; k <= last; k++ {
					s.Set(ival.New(ival.Time(4*k), ival.Time(4*k+4)).Intersect(across), vals[k])
				}
			}
			if s.NumParts() != p {
				b.Fatalf("straddle and restore left %d partitions, want %d", s.NumParts(), p)
			}
		})
	}
}

// vertexStepGraph is one PageRank-shaped hub: 24 snapshots, 24 feeders whose
// edges into the hub start one snapshot apart (so the hub's rank differs at
// every time-point and its state settles at 24 partitions), and 1 000
// out-edges to sinks with gen.SkewedLike's lifespan mix — 65 % alive for one
// snapshot, the rest for a random longer stretch.
func vertexStepGraph(tb testing.TB) *tgraph.Graph {
	const snapshots, sinks = 24, 1000
	life := ival.New(0, snapshots)
	r := rand.New(rand.NewSource(1))
	b := tgraph.NewBuilder(1+sinks+snapshots, sinks+snapshots)
	for id := 0; id <= sinks+snapshots; id++ {
		b.AddVertex(tgraph.VertexID(id), life)
	}
	for k := 1; k <= sinks; k++ {
		start, length := r.Intn(snapshots), 1
		if r.Float64() < 0.35 {
			length = 2 + r.Intn(snapshots)
		}
		alive := ival.New(ival.Time(start), ival.Time(start+length)).Intersect(life)
		b.AddEdge(tgraph.EdgeID(k), 0, tgraph.VertexID(k), alive)
	}
	for k := 0; k < snapshots; k++ {
		b.AddEdge(tgraph.EdgeID(sinks+1+k), tgraph.VertexID(sinks+1+k), 0, ival.New(ival.Time(k), snapshots))
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	return g
}

// BenchmarkVertexStep runs five PageRank supersteps over vertexStepGraph on
// one worker. The hub's step is nearly all of it: per superstep 24 warp
// tuples, 24 state updates into a 24-partition state, and the scatter
// alignment of 24 updated partitions against 1 000 edges of which each
// partition overlaps a few dozen. It runs as PageRank does — the sum combiner
// at delivery and in the sweep, each fold a new float64 — and without the
// combiner, Compute summing the group itself.
func BenchmarkVertexStep(b *testing.B) {
	g := vertexStepGraph(b)
	prog := newPRGateProg(g, 4)
	for _, combined := range []bool{true, false} {
		name := map[bool]string{true: "combined", false: "uncombined"}[combined]
		b.Run(name, func(b *testing.B) {
			opts := Options{
				NumWorkers:          1,
				ActivateAll:         true,
				MaxSupersteps:       prog.iters + 1,
				PayloadCodec:        codec.Float64{},
				DisableWarpCombiner: !combined,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Run(g, prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				if got := r.State(0).NumParts(); got != 24 {
					b.Fatalf("hub settled at %d partitions, want 24", got)
				}
			}
		})
	}
}

// scatterPropsProg is SSSP's Scatter up to the Emit: it reads both travel
// properties of the piece and builds the message interval and cost, folding
// them into sink so the reads are not dead code. Emitting is left out because
// the engine's outbox would grow with b.N.
type scatterPropsProg struct{ calls, sink int64 }

func (p *scatterPropsProg) Init(v *VertexCtx) { v.SetState(v.Lifespan(), int64(0)) }

func (p *scatterPropsProg) Compute(*VertexCtx, ival.Interval, any, []codec.Word) {}

func (p *scatterPropsProg) Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg {
	p.calls++
	tt, ok1 := v.PieceProp(0)
	tc, ok2 := v.PieceProp(1)
	if !ok1 || !ok2 {
		return nil
	}
	p.sink += int64(ival.SatAdd(t.Start, tt)) ^ (state.(int64) + tc)
	return nil
}

// atVertex runs fn in place of vertex 0's first superstep, handing it the
// ICM runtime under the engine and a live engine context.
type atVertex struct {
	rt *runtime
	fn func(rt *runtime, ctx *engine.Context)
}

func (a *atVertex) Init(ctx *engine.Context) { a.rt.Init(ctx) }

func (a *atVertex) Run(ctx *engine.Context, _ []engine.Message) {
	if ctx.Vertex() == 0 && ctx.Superstep() == 1 {
		a.fn(a.rt, ctx)
	}
}

// BenchmarkScatterProps measures the scatter step of one SSSP-shaped vertex:
// 1 000 out-edges of two pieces each, both travel labels on every piece, and
// one updated partition covering them all, so each op is 2 000 Scatter calls
// that read two properties each from the plan. It reports the time per
// Scatter call and fails if the step allocates.
func BenchmarkScatterProps(b *testing.B) {
	const edges, half = 1000, 10
	life := ival.New(0, 2*half)
	gb := tgraph.NewBuilder(1+edges, edges)
	for id := 0; id <= edges; id++ {
		gb.AddVertex(tgraph.VertexID(id), life)
	}
	for k := 1; k <= edges; k++ {
		gb.AddEdge(tgraph.EdgeID(k), 0, tgraph.VertexID(k), life)
		for h, iv := range []ival.Interval{ival.New(0, half), ival.New(half, 2*half)} {
			gb.SetEdgeProp(tgraph.EdgeID(k), tgraph.PropTravelTime, iv, int64(1+h))
			gb.SetEdgeProp(tgraph.EdgeID(k), tgraph.PropTravelCost, iv, int64(k+h))
		}
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatalf("build: %v", err)
	}

	prog := &scatterPropsProg{}
	var calls int64
	var allocs float64
	opts := Options{
		NumWorkers:    1,
		MaxSupersteps: 1,
		PropLabels:    []string{tgraph.PropTravelTime, tgraph.PropTravelCost},
	}
	opts.WrapProgram = func(p engine.Program) engine.Program {
		return &atVertex{rt: p.(*runtime), fn: func(rt *runtime, ctx *engine.Context) {
			vc := &rt.workspace(ctx).vc
			*vc = VertexCtx{rt: rt, eng: ctx, idx: 0, v: g.VertexAt(0)}
			targets, state := rt.plan.targetsOf(0), any(int64(0))
			step := func() { rt.scatterPart(vc, ctx, targets, life, state) }
			step()
			calls = prog.calls
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			allocs = testing.AllocsPerRun(10, step)
		}}
	}
	if _, err := Run(g, prog, opts); err != nil {
		b.Fatal(err)
	}
	if calls != 2*edges {
		b.Fatalf("one step made %d Scatter calls, want %d", calls, 2*edges)
	}
	if allocs != 0 {
		b.Fatalf("the scatter step allocates %.1f objects, want 0", allocs)
	}
	if prog.sink == 0 {
		b.Fatal("Scatter read no property")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(calls), "ns/scatter")
}

// BenchmarkScatterPlan measures the scatter step over a whole graph's plan in
// the order a superstep walks it: one step per vertex of TwitterLike(1), seed
// 1, under the travel labels, each over the vertex's whole lifespan, so every
// piece of the plan is scattered over once per op. BenchmarkScatterProps
// cannot see the plan's layout — its star's edges are contiguous in any —
// and this one can. It reports the time per Scatter call and fails if the
// step allocates.
func BenchmarkScatterPlan(b *testing.B) {
	g, err := gen.Generate(gen.TwitterLike(1), 1)
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	prog := &scatterPropsProg{}
	var calls, pieces int
	var allocs float64
	opts := Options{
		NumWorkers:    1,
		MaxSupersteps: 1,
		PropLabels:    []string{tgraph.PropTravelTime, tgraph.PropTravelCost},
	}
	opts.WrapProgram = func(p engine.Program) engine.Program {
		return &atVertex{rt: p.(*runtime), fn: func(rt *runtime, ctx *engine.Context) {
			vc := &rt.workspace(ctx).vc
			*vc = VertexCtx{rt: rt, eng: ctx}
			state := any(int64(0))
			step := func() {
				for v := 0; v < g.NumVertices(); v++ {
					vc.idx, vc.v = v, g.VertexAt(v)
					rt.scatterPart(vc, ctx, rt.plan.targetsOf(v), vc.v.Lifespan, state)
				}
			}
			step()
			calls, pieces = int(prog.calls), len(rt.plan.pieces)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			allocs = testing.AllocsPerRun(3, step)
		}}
	}
	if _, err := Run(g, prog, opts); err != nil {
		b.Fatal(err)
	}
	if calls == 0 || calls != pieces {
		b.Fatalf("one step made %d Scatter calls over a plan of %d pieces, want one per piece", calls, pieces)
	}
	if allocs != 0 {
		b.Fatalf("the scatter step allocates %.1f objects, want 0", allocs)
	}
	if prog.sink == 0 {
		b.Fatal("Scatter read no property")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(calls), "ns/scatter")
}
