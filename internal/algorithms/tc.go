package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
	"graphite/internal/warp"
)

// TC is temporal triangle counting (Sec. V): each vertex messages its
// two-hop neighborhood to discover directed 3-cycles whose three edges are
// concurrently alive; the count is maintained per interval. A directed
// cycle u→v→w→u is detected at its closing vertex w for the sub-intervals
// where all three edges coexist, so every cycle is counted exactly three
// times across the graph (once per rotation); TriangleTotal divides by 3.
//
// The schedule is 3 fixed supersteps: announce (own id along out-edges),
// forward (received origins along out-edges), close (check an out-edge back
// to the origin).
type TC struct{}

// tcVal is the per-interval state: origins pending forwarding in superstep
// 2, then the closure count from superstep 3.
type tcVal struct {
	Pending []int64
	Count   int64
}

// Init seeds an empty state.
func (a *TC) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), tcVal{})
}

// Compute implements the 3-step schedule.
func (a *TC) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	switch v.Superstep() {
	case 1:
		v.SetState(t, tcVal{Pending: []int64{int64(v.ID())}})
	case 2:
		var collect []int64
		for _, m := range msgs {
			collect = append(collect, v.Payload(m).([]int64)...)
		}
		if len(collect) > 0 {
			v.SetState(t, tcVal{Pending: collect})
		}
	case 3:
		a.close(v, t, msgs)
	}
}

// close counts, per sub-interval, the origins whose announcement can be
// closed by an out-edge of this vertex back to the origin.
func (a *TC) close(v *core.VertexCtx, t ival.Interval, msgs []codec.Word) {
	g := v.Graph()
	self := int64(v.ID())
	// Index the closing edges by neighbor once; each closing (origin
	// occurrence × closing-edge) pair contributes one increment over the
	// interval where the closing edge overlaps t; warp converts the
	// increments into per-sub-interval counts.
	closers := map[int64][]ival.Interval{}
	for _, ei := range g.OutEdges(v.Index()) {
		e := g.Edge(int(ei))
		if x := e.Lifespan.Intersect(t); !x.IsEmpty() {
			closers[int64(e.Dst)] = append(closers[int64(e.Dst)], x)
		}
	}
	var incs []warp.IntervalValue
	for _, m := range msgs {
		for _, origin := range v.Payload(m).([]int64) {
			if origin == self {
				continue
			}
			for _, x := range closers[origin] {
				incs = append(incs, warp.IntervalValue{Interval: x, Value: int64(1)})
			}
		}
	}
	if len(incs) == 0 {
		return
	}
	outer := []warp.IntervalValue{{Interval: t, Value: nil}}
	for _, tu := range warp.Warp(outer, incs) {
		v.SetState(tu.Interval, tcVal{Count: int64(len(tu.Msgs))})
	}
}

// Scatter announces in superstep 1 and forwards in superstep 2; the message
// interval is the overlap of the pending interval and the edge lifespan
// (the default τm = τ'k), which enforces edge concurrency.
func (a *TC) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if v.Superstep() > 2 {
		return nil
	}
	st := state.(tcVal)
	if len(st.Pending) == 0 {
		return nil
	}
	v.Emit(ival.Interval{}, v.Spill(st.Pending))
	return nil
}

// StateCodec implements core.StateCoder: a tcVal is no message payload.
func (a *TC) StateCodec() codec.Payload {
	return stateCodec[tcVal]{func(s *tcVal) ([]*int64, *[]int64) { return []*int64{&s.Count}, &s.Pending }}
}

// Options returns the run options TC needs.
func (a *TC) Options() core.Options {
	return core.Options{
		MaxSupersteps: 3,
		PayloadCodec:  codec.Int64Slice{},
	}
}

// RunTC executes temporal triangle counting.
func RunTC(g *tgraph.Graph, workers int) (*core.Result, error) {
	a := &TC{}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// Closures decodes a vertex's per-interval closure counts.
func Closures(r *core.Result, id tgraph.VertexID) []IntervalValue {
	st := r.StateByID(id)
	if st == nil {
		return nil
	}
	var out []IntervalValue
	for _, p := range st.Parts() {
		if s, ok := p.Value.(tcVal); ok && s.Count > 0 {
			out = append(out, IntervalValue{Interval: p.Interval, Value: s.Count})
		}
	}
	return out
}

// TriangleTotal returns the number of directed 3-cycles alive at time-point
// t across the whole graph, or across what the run's window kept of it.
func TriangleTotal(r *core.Result, t ival.Time) int64 {
	var sum int64
	for i := 0; i < r.Graph.NumVertices(); i++ {
		st := r.State(i)
		if st == nil {
			continue // dropped by the run's window
		}
		if v, ok := st.Get(t); ok {
			if s, ok := v.(tcVal); ok {
				sum += s.Count
			}
		}
	}
	return sum / 3
}
