package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// RH computes time-respecting reachability from a single source (Wu et
// al. [21], per Sec. V): the SSSP skeleton with the travel cost replaced by
// a flag. A vertex's state holds 1 for the intervals during which a
// time-respecting journey from the source can have arrived.
type RH struct {
	Source    tgraph.VertexID
	StartTime ival.Time
}

// Init marks every vertex not reached.
func (a *RH) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), int64(0))
}

// Compute marks the active interval reached on any incoming flag.
func (a *RH) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if v.Superstep() == 1 {
		if v.ID() == a.Source {
			if at := t.Intersect(ival.From(a.StartTime)); !at.IsEmpty() {
				v.SetState(at, int64(1))
			}
		}
		return
	}
	if state.(int64) == 0 && len(msgs) > 0 {
		v.SetState(t, int64(1))
	}
}

// Scatter propagates the flag with the arrival time as the message start.
func (a *RH) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if state.(int64) == 0 {
		return nil
	}
	tt, _, ok := pieceTravel(v)
	if !ok {
		return nil
	}
	v.Emit(ival.From(ival.SatAdd(t.Start, tt)), codec.IntWord(1))
	return nil
}

// CombineWarp ORs flags (max over {0,1}).
func (a *RH) CombineWarp(x, y codec.Word) codec.Word { return maxInt64(x, y) }

// Options returns the run options RH needs.
func (a *RH) Options() core.Options {
	return core.Options{
		PropLabels:   travelLabels(),
		PayloadCodec: codec.Int64{},
		Combine:      true,
	}
}

// RunRH executes single-source time-respecting reachability.
func RunRH(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time, workers int) (*core.Result, error) {
	a := &RH{Source: source, StartTime: startTime}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// Reachable reports whether any interval of the vertex was reached.
func Reachable(r *core.Result, id tgraph.VertexID) bool {
	st := r.StateByID(id)
	if st == nil {
		return false
	}
	for _, p := range st.Parts() {
		if v, ok := p.Value.(int64); ok && v == 1 {
			return true
		}
	}
	return false
}
