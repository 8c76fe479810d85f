package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// WCC is time-independent weakly connected components (Sec. V): minimum
// vertex-id label propagation over edges treated as undirected. The
// per-time-point label equals the component label on each snapshot.
type WCC struct{}

// Init seeds every vertex with its own id as component label.
func (a *WCC) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), Unreachable)
}

// Compute adopts the smallest label seen.
func (a *WCC) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if v.Superstep() == 1 {
		// Claim the own id: the state update triggers the initial scatter.
		v.SetState(t, int64(v.ID()))
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

// Scatter forwards the current label over the overlap interval.
func (a *WCC) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	v.Emit(ival.Interval{}, codec.IntWord(state.(int64)))
	return nil
}

// CombineWarp keeps the smallest label in a group.
func (a *WCC) CombineWarp(x, y codec.Word) codec.Word { return minInt64(x, y) }

// Options returns the run options WCC needs: undirected propagation.
func (a *WCC) Options() core.Options {
	return core.Options{
		Undirected:   true,
		PayloadCodec: codec.Int64{},
	}
}

// RunWCC executes time-independent weakly connected components.
func RunWCC(g *tgraph.Graph, workers int) (*core.Result, error) {
	a := &WCC{}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// WCCLabels decodes the per-interval component labels of a vertex.
func WCCLabels(r *core.Result, id tgraph.VertexID) []IntervalValue {
	st := r.StateByID(id)
	if st == nil {
		return nil
	}
	return Int64States(st, Unreachable)
}
