package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// TMST computes a time-minimum spanning tree rooted at the source (Huang et
// al. [9], per Sec. V): the EAT skeleton with the parent vertex id added to
// state and message so the earliest-arrival tree can be rebuilt. Ties on
// arrival time break towards the smaller parent id for determinism.
type TMST struct {
	Source    tgraph.VertexID
	StartTime ival.Time
}

// tmstValue is the state and message payload: arrival time plus the parent
// the journey came through. It is encoded as codec.Int64Pair on the wire.
type tmstValue = codec.Int64Pair

func tmstLess(a, b tmstValue) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// Init marks every vertex unreached with no parent.
func (a *TMST) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), tmstValue{A: Unreachable, B: -1})
}

// Compute adopts the smallest (arrival, parent) pair for the interval.
func (a *TMST) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if v.Superstep() == 1 {
		if v.ID() == a.Source {
			if at := t.Intersect(ival.From(a.StartTime)); !at.IsEmpty() {
				v.SetState(at, tmstValue{A: at.Start, B: int64(a.Source)})
			}
		}
		return
	}
	best := state.(tmstValue)
	for _, m := range msgs {
		if x := m.Pair(); tmstLess(x, best) {
			best = x
		}
	}
	if best != state.(tmstValue) {
		v.SetState(t, best)
	}
}

// Scatter forwards (arrival-at-sink, this-vertex) along the edge.
func (a *TMST) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if state.(tmstValue).A == Unreachable {
		return nil
	}
	tt, _, ok := pieceTravel(v)
	if !ok {
		return nil
	}
	arrive := ival.SatAdd(t.Start, tt)
	v.Emit(ival.From(arrive), codec.PairWord(arrive, int64(v.ID())))
	return nil
}

// CombineWarp keeps the lexicographically smallest (arrival, parent).
func (a *TMST) CombineWarp(x, y codec.Word) codec.Word {
	if tmstLess(x.Pair(), y.Pair()) {
		return x
	}
	return y
}

// Options returns the run options TMST needs.
func (a *TMST) Options() core.Options {
	return core.Options{
		PropLabels:   travelLabels(),
		PayloadCodec: codec.PairCodec{},
		Combine:      true,
	}
}

// RunTMST executes the time-minimum spanning tree algorithm.
func RunTMST(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time, workers int) (*core.Result, error) {
	a := &TMST{Source: source, StartTime: startTime}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// TreeEdge describes one vertex's attachment in the earliest-arrival tree.
type TreeEdge struct {
	Vertex  tgraph.VertexID
	Parent  tgraph.VertexID
	Arrival ival.Time
}

// TMSTTree extracts the tree: for each reached vertex (except the source),
// the parent on its earliest-arrival journey.
func TMSTTree(r *core.Result) []TreeEdge {
	var out []TreeEdge
	for i := 0; i < r.Graph.NumVertices(); i++ {
		v, st := r.Graph.VertexAt(i), r.State(i)
		if st == nil {
			continue // dropped by the run's window
		}
		best := tmstValue{A: Unreachable, B: -1}
		for _, p := range st.Parts() {
			if x, ok := p.Value.(tmstValue); ok && tmstLess(x, best) {
				best = x
			}
		}
		if best.A == Unreachable || tgraph.VertexID(best.B) == v.ID {
			continue
		}
		out = append(out, TreeEdge{Vertex: v.ID, Parent: tgraph.VertexID(best.B), Arrival: best.A})
	}
	return out
}
