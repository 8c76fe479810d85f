package algorithms

import (
	"math"

	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// FAST computes the fastest (minimum-duration) time-respecting journey from
// a single source to every vertex (Wu et al. [6], per Sec. V): duration is
// the final arrival time minus the departure time from the source.
//
// As the paper sketches, messages carry the time at which the journey
// started at the source and the state maintains, per arrival interval, the
// journey start that minimizes duration. The dominance rule: for a fixed
// arrival point, the latest source start wins; journeys with distinct
// arrival intervals are kept apart by the partitioned state, so the state
// holds the *maximum* start time per interval and the fastest duration at a
// vertex is min over partitions of (interval start − start time).
//
// The source fans out one message per departure time-point of each out-edge
// window (clamped at the graph horizon); downstream propagation departs at
// the earliest point of each overlap, which is optimal for a fixed start.
type FAST struct {
	Source    tgraph.VertexID
	StartTime ival.Time
	// Horizon clamps source departure enumeration on unbounded edge
	// windows; RunFAST sets it to the graph horizon.
	Horizon ival.Time
}

// fastAtSource marks the source's own state: any start time is available.
const fastAtSource = int64(math.MaxInt64)

// fastNone marks intervals no journey has reached.
const fastNone = int64(-1)

// Init marks every vertex unreached.
func (a *FAST) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), fastNone)
}

// Compute keeps the latest journey start per arrival interval.
func (a *FAST) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if v.Superstep() == 1 {
		if v.ID() == a.Source {
			if at := t.Intersect(ival.From(a.StartTime)); !at.IsEmpty() {
				v.SetState(at, fastAtSource)
			}
		}
		return
	}
	best := state.(int64)
	for _, m := range msgs {
		if x := m.Int(); x > best {
			best = x
		}
	}
	if best > state.(int64) {
		v.SetState(t, best)
	}
}

// Scatter propagates journey starts. At the source every departure
// time-point in the window begins a fresh journey; elsewhere the journey
// departs at the earliest overlap point.
func (a *FAST) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	s0 := state.(int64)
	if s0 == fastNone {
		return nil
	}
	tt, _, ok := pieceTravel(v)
	if !ok {
		return nil
	}
	if s0 != fastAtSource {
		v.Emit(ival.From(ival.SatAdd(t.Start, tt)), codec.IntWord(s0))
		return nil
	}
	// Source fan-out: one journey per departure point, clamped to the
	// horizon (departing later than the horizon is indistinguishable from
	// departing at it, as nothing in the graph changes beyond it).
	end := t.End
	if hz := ival.SatAdd(a.Horizon, 1); end > hz {
		end = hz
	}
	for d := t.Start; d < end; d++ {
		v.Emit(ival.From(ival.SatAdd(d, tt)), codec.IntWord(d))
	}
	return nil
}

// CombineWarp keeps the latest start in a group.
func (a *FAST) CombineWarp(x, y codec.Word) codec.Word { return maxInt64(x, y) }

// Options returns the run options FAST needs.
func (a *FAST) Options() core.Options {
	return core.Options{
		PropLabels:   travelLabels(),
		PayloadCodec: codec.Int64{},
		Combine:      true,
	}
}

// RunFAST executes the fastest-journey algorithm.
func RunFAST(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time, workers int) (*core.Result, error) {
	a := &FAST{Source: source, StartTime: startTime, Horizon: g.Horizon()}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// FastestDuration returns the minimum journey duration from the source to
// the vertex, 0 for the source itself, or Unreachable.
func FastestDuration(r *core.Result, id tgraph.VertexID) int64 {
	st := r.StateByID(id)
	if st == nil {
		return Unreachable
	}
	best := Unreachable
	for _, p := range st.Parts() {
		s0, ok := p.Value.(int64)
		if !ok || s0 == fastNone {
			continue
		}
		if s0 == fastAtSource {
			return 0
		}
		if d := p.Interval.Start - s0; d < best {
			best = d
		}
	}
	return best
}
