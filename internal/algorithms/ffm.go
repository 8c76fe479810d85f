package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// FFM counts temporal feed-forward triangle motifs — the monetary-routing
// pattern the paper's introduction motivates for transaction networks: three
// edges u→v, v→w, u→w usable at strictly increasing times t1 < t2 < t3
// within their lifespans. It is an extension beyond the paper's twelve
// algorithms, built from the same announce/forward/close protocol as TC but
// ordered in time rather than concurrent: messages carry the earliest usable
// continuation time instead of relying on interval overlap.
//
// The count is per closing instance triple (e1, e2, e3), accumulated at the
// wedge's middle-to-sink vertex w.
type FFM struct{}

// ffmVal is the per-interval state: pending (origin, earliest-next-time)
// pairs flattened as [u1, t1, u2, t2, ...], then the motif count.
type ffmVal struct {
	Pending []int64
	Count   int64
}

// Init seeds an empty state.
func (a *FFM) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), ffmVal{})
}

// Compute implements the 3-step schedule.
func (a *FFM) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	switch v.Superstep() {
	case 1:
		// Announce: the marker makes scatter fire over every out-edge.
		v.SetState(t, ffmVal{Pending: []int64{int64(v.ID()), -1}})
	case 2:
		var collect []int64
		for _, m := range msgs {
			collect = append(collect, v.Payload(m).([]int64)...)
		}
		if len(collect) > 0 {
			v.SetState(t, ffmVal{Pending: collect})
		}
	case 3:
		a.close(v, t, msgs)
	}
}

// close counts, for each forwarded (origin, t2) pair, the closing edges
// origin→here usable at some t3 > t2.
func (a *FFM) close(v *core.VertexCtx, t ival.Interval, msgs []codec.Word) {
	g := v.Graph()
	self := int64(v.ID())
	// Closing edge windows indexed by source.
	windows := map[int64][]ival.Interval{}
	for _, ei := range g.InEdges(v.Index()) {
		e := g.Edge(int(ei))
		windows[int64(e.Src)] = append(windows[int64(e.Src)], e.Lifespan)
	}
	var count int64
	for _, m := range msgs {
		pairs := v.Payload(m).([]int64)
		for i := 0; i+1 < len(pairs); i += 2 {
			u, t3min := pairs[i], pairs[i+1] // pair value = earliest usable t3
			if u == self {
				continue
			}
			for _, w := range windows[u] {
				if t3 := maxTime(w.Start, t3min); t3 < w.End {
					count++
				}
			}
		}
	}
	if count > 0 {
		v.SetState(t, ffmVal{Count: count})
	}
}

func maxTime(a, b ival.Time) ival.Time {
	if a > b {
		return a
	}
	return b
}

// Scatter announces in superstep 1 (pair value -1 marks "pick my departure
// here") and forwards time-shifted pairs in superstep 2.
func (a *FFM) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if v.Superstep() > 2 {
		return nil
	}
	st := state.(ffmVal)
	if len(st.Pending) == 0 {
		return nil
	}
	var out []int64
	for i := 0; i+1 < len(st.Pending); i += 2 {
		u, after := st.Pending[i], st.Pending[i+1]
		if v.Superstep() == 1 {
			// First hop: u departs at the earliest point of this edge's
			// window; the chain may continue strictly later.
			out = append(out, u, e.Lifespan.Start+1)
			continue
		}
		// Second hop: depart at the earliest usable point of this window.
		t2 := maxTime(e.Lifespan.Start, after)
		if t2 >= e.Lifespan.End {
			continue
		}
		out = append(out, u, t2+1)
	}
	if len(out) == 0 {
		return nil
	}
	v.Emit(ival.Universe, v.Spill(out))
	return nil
}

// StateCodec implements core.StateCoder: an ffmVal is no message payload.
func (a *FFM) StateCodec() codec.Payload {
	return stateCodec[ffmVal]{func(s *ffmVal) ([]*int64, *[]int64) { return []*int64{&s.Count}, &s.Pending }}
}

// Options returns the run options FFM needs.
func (a *FFM) Options() core.Options {
	return core.Options{
		MaxSupersteps: 3,
		PayloadCodec:  codec.Int64Slice{},
		// The motif is defined over edge lifespans, not property pieces:
		// one scatter per edge, so restrict partitioning to a label no edge
		// carries.
		PropLabels: []string{"ffm-none"},
	}
}

// RunFFM executes temporal feed-forward motif counting.
func RunFFM(g *tgraph.Graph, workers int) (*core.Result, error) {
	a := &FFM{}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// FFMTotal returns the number of feed-forward motifs in the graph.
func FFMTotal(r *core.Result) int64 {
	var sum int64
	for i := 0; i < r.Graph.NumVertices(); i++ {
		for _, p := range r.State(i).Parts() {
			if s, ok := p.Value.(ffmVal); ok {
				sum += s.Count
			}
		}
	}
	return sum
}
