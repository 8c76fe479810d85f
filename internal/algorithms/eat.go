package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// EAT computes the earliest arrival time from a single source departing at
// or after StartTime (Wu et al., adapted to ICM per Sec. V): the SSSP
// skeleton with the travel cost in the message replaced by the arrival time
// at the destination.
type EAT struct {
	Source    tgraph.VertexID
	StartTime ival.Time
}

// Init marks every vertex unreached.
func (a *EAT) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), Unreachable)
}

// Compute adopts the smallest arrival time offered for the active interval.
func (a *EAT) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if v.Superstep() == 1 {
		if v.ID() == a.Source {
			if at := t.Intersect(ival.From(a.StartTime)); !at.IsEmpty() {
				// Present at the source from the later of StartTime and its
				// birth; that is the journey's start.
				v.SetState(at, at.Start)
			}
		}
		return
	}
	best := state.(int64)
	for _, m := range msgs {
		if x := m.Int(); x < best {
			best = x
		}
	}
	if best < state.(int64) {
		v.SetState(t, best)
	}
}

// Scatter departs at the earliest point of the overlap and sends the arrival
// time at the sink, valid from that arrival onward.
func (a *EAT) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if state.(int64) == Unreachable {
		return nil
	}
	tt, _, ok := pieceTravel(v)
	if !ok {
		return nil
	}
	arrive := ival.SatAdd(t.Start, tt)
	v.Emit(ival.From(arrive), codec.IntWord(arrive))
	return nil
}

// CombineWarp keeps only the earliest arrival in a message group.
func (a *EAT) CombineWarp(x, y codec.Word) codec.Word { return minInt64(x, y) }

// Options returns the run options EAT needs.
func (a *EAT) Options() core.Options {
	return core.Options{
		PropLabels:   travelLabels(),
		PayloadCodec: codec.Int64{},
		Combine:      true,
	}
}

// RunEAT executes the earliest-arrival-time algorithm.
func RunEAT(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time, workers int) (*core.Result, error) {
	a := &EAT{Source: source, StartTime: startTime}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// EarliestArrival returns the earliest arrival time at a vertex, or
// Unreachable.
func EarliestArrival(r *core.Result, id tgraph.VertexID) int64 {
	st := r.StateByID(id)
	if st == nil {
		return Unreachable
	}
	return MinInt64State(st, Unreachable)
}
