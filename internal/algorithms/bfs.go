package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// BFS is the time-independent breadth-first search (Sec. V): the vertex-
// centric logic is reused unchanged, and because ICM's default scatter
// restricts message validity to the overlap of the state and the edge
// lifespan, the per-time-point result equals running BFS on each snapshot
// independently (snapshot reducibility).
type BFS struct {
	Source tgraph.VertexID
}

// Init marks every vertex unvisited.
func (a *BFS) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), Unreachable)
}

// Compute adopts the smallest level offered for the active interval.
func (a *BFS) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if v.Superstep() == 1 {
		if v.ID() == a.Source {
			v.SetState(t, int64(0))
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

// Scatter sends level+1, valid exactly while the state and edge coexist
// (the default message interval τm = τ'k).
func (a *BFS) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if state.(int64) == Unreachable {
		return nil
	}
	v.Emit(ival.Interval{}, codec.IntWord(state.(int64)+1))
	return nil
}

// CombineWarp keeps the smallest level in a group.
func (a *BFS) CombineWarp(x, y codec.Word) codec.Word { return minInt64(x, y) }

// Options returns the run options BFS needs: no edge properties are used.
func (a *BFS) Options() core.Options {
	return core.Options{
		PayloadCodec: codec.Int64{},
	}
}

// RunBFS executes time-independent BFS from the source.
func RunBFS(g *tgraph.Graph, source tgraph.VertexID, workers int) (*core.Result, error) {
	a := &BFS{Source: source}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// BFSLevels decodes the per-interval BFS levels of a vertex.
func BFSLevels(r *core.Result, id tgraph.VertexID) []IntervalValue {
	st := r.StateByID(id)
	if st == nil {
		return nil
	}
	return Int64States(st, Unreachable)
}
