package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// LD computes the latest departure time towards a target (Wu et al. [6],
// per Sec. V): it reverse-traverses from the sink towards sources, in space
// and time. A vertex's state holds 1 over its "presence-validity" intervals:
// being at the vertex at time-point t still allows reaching Target by
// Deadline (waiting at vertices is free, so valid intervals are prefixes
// [lifespan.start, X)). The message interval is [0, overlap.end −
// travel-time), exactly the ⟨−∞, t.end − travelTime⟩ construction in the
// paper; warp enforces the temporal bounds.
type LD struct {
	Target tgraph.VertexID
	// Deadline is the exclusive bound on arrival at Target; zero or
	// negative means the target's whole lifespan qualifies.
	Deadline ival.Time
}

// Init marks every vertex's presence invalid.
func (a *LD) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), int64(0))
}

// Compute marks the active interval valid on any incoming flag; in
// superstep 1 the target seeds its presence up to the deadline.
func (a *LD) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if v.Superstep() == 1 {
		if v.ID() == a.Target {
			bound := t
			if a.Deadline > 0 {
				bound = t.Intersect(ival.New(v.Lifespan().Start, a.Deadline))
			}
			if !bound.IsEmpty() {
				v.SetState(bound, int64(1))
			}
		}
		return
	}
	if state.(int64) == 0 && len(msgs) > 0 {
		v.SetState(t, int64(1))
	}
}

// Scatter runs along in-edges (Reverse mode): a predecessor departing at d
// reaches this vertex at d + travel-time, so departures are valid while
// both d is inside the edge window and d + travel-time falls inside this
// vertex's presence prefix. Because waiting is free, the predecessor's
// presence is then valid for every time-point up to the latest such
// departure.
func (a *LD) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if state.(int64) == 0 {
		return nil
	}
	piece := v.ScatterPiece()
	tt, _, ok := pieceTravel(v)
	if !ok {
		return nil
	}
	// End of this vertex's presence prefix: presence intervals are always
	// prefixes of the lifespan because every LD message starts at 0.
	presenceEnd := t.End
	for _, p := range v.State().Parts() {
		if x, ok := p.Value.(int64); ok && x == 1 {
			presenceEnd = p.Interval.End
		} else {
			break
		}
	}
	// Valid departures d satisfy d ∈ piece (the full edge window with these
	// properties) and d + tt < presenceEnd. If any exist, the predecessor's
	// presence extends to the latest one (waiting is free before it).
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

// CombineWarp ORs flags.
func (a *LD) CombineWarp(x, y codec.Word) codec.Word { return maxInt64(x, y) }

// Options returns the run options LD needs: reverse traversal.
func (a *LD) Options() core.Options {
	return core.Options{
		Reverse:           true,
		ScatterSlackLabel: tgraph.PropTravelTime,
		PropLabels:        travelLabels(),
		PayloadCodec:      codec.Int64{},
	}
}

// RunLD executes the latest-departure algorithm towards target.
func RunLD(g *tgraph.Graph, target tgraph.VertexID, deadline ival.Time, workers int) (*core.Result, error) {
	a := &LD{Target: target, Deadline: deadline}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// LatestDeparture returns the latest time-point at which one can be at the
// vertex and still reach the target (−1 when the target is unreachable).
// For the target itself this is the last point before the deadline.
func LatestDeparture(r *core.Result, id tgraph.VertexID) ival.Time {
	st := r.StateByID(id)
	if st == nil {
		return -1
	}
	latest := ival.Time(-1)
	for _, p := range st.Parts() {
		if v, ok := p.Value.(int64); ok && v == 1 {
			if p.Interval.End == ival.Infinity {
				return ival.Infinity
			}
			if p.Interval.End-1 > latest {
				latest = p.Interval.End - 1
			}
		}
	}
	return latest
}
