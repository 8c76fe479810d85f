package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// LCC is the temporal local clustering coefficient (Sec. V): each interval
// vertex quantifies how close its out-neighbors are to forming a clique at
// each time-point. The vertex messages its neighbors, which message their
// neighbors; a second-hop vertex that is also a direct out-neighbor of the
// origin reports the closed wedge back to the origin, which accumulates the
// count and divides by deg·(deg−1), all per interval.
//
// The schedule is 4 fixed supersteps: announce, forward, close-and-reply,
// accumulate.
type LCC struct {
	degParts [][]IntervalValue // per vertex: out-degree per interval
}

// lccVal is the per-interval state: origins pending forwarding, then the
// closed-wedge count and the out-degree for the final coefficient.
type lccVal struct {
	Pending []int64
	Count   int64
	Deg     int64
}

// NewLCC precomputes the temporal out-degree partitions.
func NewLCC(g *tgraph.Graph) *LCC {
	return &LCC{degParts: degreePartitions(g)}
}

// Init seeds an empty state.
func (a *LCC) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), lccVal{})
}

// Compute implements the 4-step schedule.
func (a *LCC) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	switch v.Superstep() {
	case 1:
		v.SetState(t, lccVal{Pending: []int64{int64(v.ID())}})
	case 2:
		var collect []int64
		for _, m := range msgs {
			collect = append(collect, v.Payload(m).([]int64)...)
		}
		if len(collect) > 0 {
			v.SetState(t, lccVal{Pending: collect})
		}
	case 3:
		a.closeAndReply(v, t, msgs)
	case 4:
		a.accumulate(v, t, msgs)
	}
}

// closeAndReply checks, for each forwarded origin u, whether this vertex is
// a direct out-neighbor of u (an in-edge from u exists) and reports each
// closed wedge back to u for the overlap interval.
func (a *LCC) closeAndReply(v *core.VertexCtx, t ival.Interval, msgs []codec.Word) {
	g := v.Graph()
	self := int64(v.ID())
	// Index alive in-edges by source once per tuple.
	type window struct {
		src int
		x   ival.Interval
	}
	froms := map[int64][]window{}
	for _, ei := range g.InEdges(v.Index()) {
		e := g.Edge(int(ei))
		if x := e.Lifespan.Intersect(t); !x.IsEmpty() {
			froms[int64(e.Src)] = append(froms[int64(e.Src)], window{src: g.SrcIndex(int(ei)), x: x})
		}
	}
	// Aggregate replies per (origin, window) before sending: hubs receive
	// the same origin many times and one counted reply carries them all.
	counts := map[window]int64{}
	for _, m := range msgs {
		for _, origin := range v.Payload(m).([]int64) {
			if origin == self {
				continue
			}
			for _, w := range froms[origin] {
				counts[w]++
			}
		}
	}
	for w, k := range counts {
		v.SendTo(w.src, w.x, v.Spill([]int64{k}))
	}
}

// accumulate folds the wedge replies into per-interval counts and pairs them
// with the out-degree so the coefficient can be derived.
func (a *LCC) accumulate(v *core.VertexCtx, t ival.Interval, msgs []codec.Word) {
	// Replies arrive pre-grouped by warp for this tuple; each message is
	// alive for the whole tuple interval, so the count here is constant.
	count := int64(0)
	for _, m := range msgs {
		for _, x := range v.Payload(m).([]int64) {
			count += x
		}
	}
	if count == 0 {
		return
	}
	for _, dp := range a.degParts[v.Index()] {
		x := dp.Interval.Intersect(t)
		if x.IsEmpty() {
			continue
		}
		v.SetState(x, lccVal{Count: count, Deg: dp.Value})
	}
}

// Scatter announces in superstep 1 and forwards in superstep 2.
func (a *LCC) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if v.Superstep() > 2 {
		return nil
	}
	st := state.(lccVal)
	if len(st.Pending) == 0 {
		return nil
	}
	v.Emit(ival.Interval{}, v.Spill(st.Pending))
	return nil
}

// StateCodec implements core.StateCoder: an lccVal is no message payload.
func (a *LCC) StateCodec() codec.Payload {
	return stateCodec[lccVal]{func(s *lccVal) ([]*int64, *[]int64) { return []*int64{&s.Count, &s.Deg}, &s.Pending }}
}

// Options returns the run options LCC needs.
func (a *LCC) Options() core.Options {
	return core.Options{
		MaxSupersteps: 4,
		PayloadCodec:  codec.Int64Slice{},
	}
}

// RunLCC executes the temporal local clustering coefficient.
func RunLCC(g *tgraph.Graph, workers int) (*core.Result, error) {
	a := NewLCC(g)
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// Coefficient returns a vertex's clustering coefficient at time-point t:
// closed wedges / (deg·(deg−1)), or 0 when it has fewer than 2 out-edges.
func Coefficient(r *core.Result, id tgraph.VertexID, t ival.Time) float64 {
	st := r.StateByID(id)
	if st == nil {
		return 0
	}
	v, ok := st.Get(t)
	if !ok {
		return 0
	}
	s, ok := v.(lccVal)
	if !ok || s.Deg < 2 || s.Count == 0 {
		return 0
	}
	return float64(s.Count) / float64(s.Deg*(s.Deg-1))
}
