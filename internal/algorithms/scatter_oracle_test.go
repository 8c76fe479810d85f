package algorithms

import (
	"math/rand"
	"reflect"
	"testing"

	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// travelProps is the lookup VertexCtx.PieceProp replaced in every Scatter,
// kept as the test reference: the edge's travel-time and travel-cost at
// time-point t, found by label. Both must be present for the edge to be
// traversable.
func travelProps(e *tgraph.Edge, t ival.Time) (tt, tc int64, ok bool) {
	tt, ok1 := e.Props.ValueAt(tgraph.PropTravelTime, t)
	tc, ok2 := e.Props.ValueAt(tgraph.PropTravelCost, t)
	return tt, tc, ok1 && ok2
}

// The six path algorithms with the Scatter each had before: the same message
// construction, the properties read from the graph by label at the scatter
// interval's start (LD: at the piece's start).

type byLabelSSSP struct{ *SSSP }

func (a byLabelSSSP) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	cost := state.(int64)
	if cost == Unreachable {
		return nil
	}
	tt, tc, ok := travelProps(e, t.Start)
	if !ok {
		return nil
	}
	v.Emit(ival.From(ival.SatAdd(t.Start, tt)), codec.IntWord(cost+tc))
	return nil
}

type byLabelEAT struct{ *EAT }

func (a byLabelEAT) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if state.(int64) == Unreachable {
		return nil
	}
	tt, _, ok := travelProps(e, t.Start)
	if !ok {
		return nil
	}
	arrive := ival.SatAdd(t.Start, tt)
	v.Emit(ival.From(arrive), codec.IntWord(arrive))
	return nil
}

type byLabelFAST struct{ *FAST }

func (a byLabelFAST) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	s0 := state.(int64)
	if s0 == fastNone {
		return nil
	}
	tt, _, ok := travelProps(e, t.Start)
	if !ok {
		return nil
	}
	if s0 != fastAtSource {
		v.Emit(ival.From(ival.SatAdd(t.Start, tt)), codec.IntWord(s0))
		return nil
	}
	end := t.End
	if hz := ival.SatAdd(a.Horizon, 1); end > hz {
		end = hz
	}
	for d := t.Start; d < end; d++ {
		v.Emit(ival.From(ival.SatAdd(d, tt)), codec.IntWord(d))
	}
	return nil
}

type byLabelLD struct{ *LD }

func (a byLabelLD) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if state.(int64) == 0 {
		return nil
	}
	piece := v.ScatterPiece()
	tt, _, ok := travelProps(e, piece.Start)
	if !ok {
		return nil
	}
	presenceEnd := t.End
	for _, p := range v.State().Parts() {
		if x, ok := p.Value.(int64); ok && x == 1 {
			presenceEnd = p.Interval.End
		} else {
			break
		}
	}
	end := piece.End
	if x := ival.SatSub(presenceEnd, tt); presenceEnd != ival.Infinity && x < end {
		end = x
	}
	if end <= piece.Start || end <= 0 {
		return nil
	}
	v.Emit(ival.New(0, end), codec.IntWord(1))
	return nil
}

type byLabelRH struct{ *RH }

func (a byLabelRH) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if state.(int64) == 0 {
		return nil
	}
	tt, _, ok := travelProps(e, t.Start)
	if !ok {
		return nil
	}
	v.Emit(ival.From(ival.SatAdd(t.Start, tt)), codec.IntWord(1))
	return nil
}

type byLabelTMST struct{ *TMST }

func (a byLabelTMST) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if state.(tmstValue).A == Unreachable {
		return nil
	}
	tt, _, ok := travelProps(e, t.Start)
	if !ok {
		return nil
	}
	arrive := ival.SatAdd(t.Start, tt)
	v.Emit(ival.From(arrive), codec.PairWord(arrive, int64(v.ID())))
	return nil
}

// pathAlgorithm is one of the six algorithms that read the travel properties
// in Scatter, next to its by-label reference.
type pathAlgorithm struct {
	name    string
	prog    core.Program
	byLabel core.Program
	opts    core.Options
}

func pathAlgorithms(g *tgraph.Graph, source tgraph.VertexID) []pathAlgorithm {
	sssp := &SSSP{Source: source}
	eat := &EAT{Source: source}
	fast := &FAST{Source: source, Horizon: g.Horizon()}
	ld := &LD{Target: source}
	rh := &RH{Source: source}
	tmst := &TMST{Source: source}
	return []pathAlgorithm{
		{"sssp", sssp, byLabelSSSP{sssp}, sssp.Options()},
		{"eat", eat, byLabelEAT{eat}, eat.Options()},
		{"fast", fast, byLabelFAST{fast}, fast.Options()},
		{"ld", ld, byLabelLD{ld}, ld.Options()},
		{"rh", rh, byLabelRH{rh}, rh.Options()},
		{"tmst", tmst, byLabelTMST{tmst}, tmst.Options()},
	}
}

// TestTravelSlotsNameTheirLabels pins what pieceTravel relies on: in the
// options of every algorithm that calls it, a slot constant indexes the label
// it is named after.
func TestTravelSlotsNameTheirLabels(t *testing.T) {
	for _, a := range pathAlgorithms(tgraph.TransitExample(), 0) {
		labels := a.opts.PropLabels
		if len(labels) != 2 || labels[slotTravelTime] != tgraph.PropTravelTime || labels[slotTravelCost] != tgraph.PropTravelCost {
			t.Errorf("%s declares %q; want travel-time at slot %d and travel-cost at slot %d",
				a.name, labels, slotTravelTime, slotTravelCost)
		}
	}
}

// gappy rebuilds g with some property values removed, so that edges lack a
// travel label on the first or last part of their lifespan, in the middle of
// it, or altogether — what generated graphs never do and Scatter must treat
// as "not traversable here".
func gappy(t *testing.T, g *tgraph.Graph, seed int64) *tgraph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := tgraph.NewBuilder(g.NumVertices(), g.NumEdges())
	for i := 0; i < g.NumVertices(); i++ {
		v := g.VertexAt(i)
		b.AddVertex(v.ID, v.Lifespan)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		b.AddEdge(e.ID, e.Src, e.Dst, e.Lifespan)
		for label, entries := range e.Props.All() {
			drop := -1 // one entry, when the dice say so
			switch r.Intn(4) {
			case 0:
				drop = r.Intn(len(entries))
			case 1:
				if r.Intn(4) == 0 {
					continue // the whole label
				}
			}
			for k, p := range entries {
				if k == drop {
					// Keep the middle of a longer value: a gap on both sides.
					if p.Interval.End != ival.Infinity && p.Interval.End-p.Interval.Start >= 3 {
						b.SetEdgeProp(e.ID, label, ival.New(p.Interval.Start+1, p.Interval.End-1), p.Value)
					}
					continue
				}
				b.SetEdgeProp(e.ID, label, p.Interval, p.Value)
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatalf("gappy: %v", err)
	}
	return out
}

// inboxLog records, per superstep and receiving vertex, the messages that
// reached it in delivery order. On one worker with no receiver-side combiner
// that is the run's scatter stream: every (destination, interval, value) the
// program emitted, in the order it emitted them.
type inboxLog struct {
	inner engine.Program
	steps map[[2]int][]engine.Message
	total int
}

func (l *inboxLog) Init(ctx *engine.Context) { l.inner.Init(ctx) }

func (l *inboxLog) Run(ctx *engine.Context, msgs []engine.Message) {
	if len(msgs) > 0 {
		l.steps[[2]int{ctx.Superstep(), ctx.Vertex()}] = append([]engine.Message(nil), msgs...)
		l.total += len(msgs)
	}
	l.inner.Run(ctx, msgs)
}

// TestScatterStreamMatchesByLabelOracle runs each path algorithm twice — as
// shipped, reading the travel properties from the scatter plan, and with the
// Scatter it had before, reading them from the graph by label — and requires
// the same ordered message stream in every superstep and the same final
// states. The graphs include ones with holes in their properties.
func TestScatterStreamMatchesByLabelOracle(t *testing.T) {
	graphs := tinyGraphs(t)
	for k, g := range graphs {
		graphs = append(graphs, gappy(t, g, int64(k)))
	}
	for _, p := range []gen.Profile{gen.TwitterLike(0.02), gen.MAGLike(0.02)} {
		g, err := gen.Generate(p, 9)
		if err != nil {
			t.Fatalf("generate %s: %v", p.Name, err)
		}
		graphs = append(graphs, g, gappy(t, g, 9))
	}
	graphs = append(graphs, tgraph.TransitExample())

	compared := map[string]int{}
	for gi, g := range graphs {
		for _, a := range pathAlgorithms(g, g.VertexAt(gi%g.NumVertices()).ID) {
			run := func(prog core.Program) (*core.Result, *inboxLog) {
				log := &inboxLog{steps: map[[2]int][]engine.Message{}}
				opts := a.opts
				opts.NumWorkers = 1
				opts.DisableWarpCombiner = true
				opts.WrapProgram = func(p engine.Program) engine.Program {
					log.inner = p
					return log
				}
				r, err := core.Run(g, prog, opts)
				if err != nil {
					t.Fatalf("graph %d: %s: %v", gi, a.name, err)
				}
				return r, log
			}
			got, gotLog := run(a.prog)
			want, wantLog := run(a.byLabel)
			if !reflect.DeepEqual(gotLog.steps, wantLog.steps) {
				for key, w := range wantLog.steps {
					if !reflect.DeepEqual(gotLog.steps[key], w) {
						t.Fatalf("graph %d: %s: superstep %d vertex %d received\n  %v\nby label\n  %v",
							gi, a.name, key[0], key[1], gotLog.steps[key], w)
					}
				}
				t.Fatalf("graph %d: %s: %d inboxes, by label %d", gi, a.name, len(gotLog.steps), len(wantLog.steps))
			}
			requireSameStates(t, a.name, want, got)
			compared[a.name] += wantLog.total
		}
	}
	for _, a := range pathAlgorithms(tgraph.TransitExample(), 0) {
		if compared[a.name] == 0 {
			t.Errorf("%s sent no message on any graph; the test compared nothing", a.name)
		}
	}
}
