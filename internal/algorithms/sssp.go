package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// SSSP is the temporal single-source shortest path algorithm of Alg. 1 in
// the paper: it finds, for every vertex and every interval of arrival time,
// the minimum travel cost of a time-respecting journey from the source
// departing at or after StartTime. Waiting at vertices is free; the message
// a scatter emits is valid from the earliest departure in the overlap
// interval plus the edge's travel time, onward to ∞.
type SSSP struct {
	Source    tgraph.VertexID
	StartTime ival.Time
}

// Init sets every vertex's cost to Unreachable for its whole lifespan.
func (a *SSSP) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), Unreachable)
}

// Compute lowers the vertex's cost for the active interval to the smallest
// incoming cost; in superstep 1 the source instead claims cost 0 from
// StartTime onward.
func (a *SSSP) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if v.Superstep() == 1 {
		if v.ID() == a.Source {
			if at := t.Intersect(ival.From(a.StartTime)); !at.IsEmpty() {
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

// Scatter forwards the improved cost along an out-edge: the travel cost is
// added and the message is valid from the earliest departure plus travel
// time, to ∞ (arrive-and-wait semantics).
func (a *SSSP) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	cost := state.(int64)
	if cost == Unreachable {
		return nil
	}
	tt, tc, ok := pieceTravel(v)
	if !ok {
		return nil
	}
	v.Emit(ival.From(ival.SatAdd(t.Start, tt)), codec.IntWord(cost+tc))
	return nil
}

// CombineWarp implements the inline warp combiner: only the minimum cost in
// a group can win in Compute.
func (a *SSSP) CombineWarp(x, y codec.Word) codec.Word { return minInt64(x, y) }

// Options returns the run options SSSP needs.
func (a *SSSP) Options() core.Options {
	return core.Options{
		PropLabels:   travelLabels(),
		PayloadCodec: codec.Int64{},
	}
}

// RunSSSP executes temporal SSSP with the given worker count.
func RunSSSP(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time, workers int) (*core.Result, error) {
	a := &SSSP{Source: source, StartTime: startTime}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// SSSPCosts decodes the final SSSP state of one vertex: the minimal travel
// cost per arrival interval, omitting unreachable intervals.
func SSSPCosts(r *core.Result, id tgraph.VertexID) []IntervalValue {
	st := r.StateByID(id)
	if st == nil {
		return nil
	}
	return Int64States(st, Unreachable)
}
