package algorithms

import (
	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// SCC is time-independent strongly connected components (Yan et al. [16],
// per Sec. V), implemented as the classic forward-backward coloring
// algorithm under master control, interval-centrically:
//
//   - FW phase: every unassigned vertex interval propagates the maximum
//     vertex id along out-edges until globally stable; the converged label
//     fwd(v,t) is the largest id with a time-respecting-at-t path to v.
//   - BW phase: every root (fwd == own id) claims SCC = own id and the claim
//     propagates along in-edges, restricted to equal fwd labels, until
//     stable. All reached vertices belong to the root's SCC at those
//     time-points.
//   - Rounds repeat on the unassigned remainder until every interval of
//     every vertex is assigned; the master halts the run.
//
// Each time-point evolves exactly like the snapshot algorithm, so the label
// at (v, t) is the SCC of v in snapshot S_t (with the component named by its
// maximum vertex id).
type SCC struct{}

// sccState is the per-interval state: the FW label, the assigned component
// (-1 while unassigned), and the phase the interval last acted in.
type sccState struct {
	Fwd   int64
	Scc   int64
	Phase int64
}

// Aggregator names used by the SCC master; both are engine.BoolOr, whose true
// is sccTrue.
const (
	sccChanged    = "scc.changed"
	sccUnassigned = "scc.unassigned"
)

var sccTrue = codec.IntWord(1)

// Init marks every vertex unassigned.
func (a *SCC) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), sccState{Fwd: -1, Scc: -1, Phase: -1})
}

// Compute implements both phases; the phase parity is master-controlled
// (even = FW, odd = BW).
func (a *SCC) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	id := int64(v.ID())
	phase := int64(v.Phase())
	if v.Superstep() == 1 {
		// Enter FW round 0: claim the own id; the update broadcasts it.
		v.Aggregate(sccChanged, sccTrue)
		v.Aggregate(sccUnassigned, sccTrue)
		v.SetState(t, sccState{Fwd: id, Scc: -1, Phase: 0})
		return
	}
	st := state.(sccState)
	if st.Scc >= 0 {
		return // assigned: inert for the rest of the run
	}
	v.Aggregate(sccUnassigned, sccTrue)

	if st.Phase != phase {
		// First compute call of a new phase for this interval.
		if phase%2 == 0 {
			// FW restart: reset the label and re-broadcast.
			v.Aggregate(sccChanged, sccTrue)
			v.SetState(t, sccState{Fwd: id, Scc: -1, Phase: phase})
			return
		}
		// BW start: roots claim their component and notify in-neighbors.
		if st.Fwd == id {
			v.Aggregate(sccChanged, sccTrue)
			v.SetState(t, sccState{Fwd: st.Fwd, Scc: id, Phase: phase})
			a.sendBackward(v, t, id)
			return
		}
		v.SetState(t, sccState{Fwd: st.Fwd, Scc: -1, Phase: phase})
		return
	}

	if phase%2 == 0 {
		best := st.Fwd
		for _, m := range msgs {
			if x := m.Int(); x > best {
				best = x
			}
		}
		if best > st.Fwd {
			v.Aggregate(sccChanged, sccTrue)
			v.SetState(t, sccState{Fwd: best, Scc: -1, Phase: phase})
		}
		return
	}
	for _, m := range msgs {
		if c := m.Int(); c == st.Fwd {
			v.Aggregate(sccChanged, sccTrue)
			v.SetState(t, sccState{Fwd: st.Fwd, Scc: c, Phase: phase})
			a.sendBackward(v, t, c)
			return
		}
	}
}

// sendBackward notifies in-neighbors of a component claim, restricted to
// the sub-intervals where the in-edge is alive.
func (a *SCC) sendBackward(v *core.VertexCtx, t ival.Interval, c int64) {
	g := v.Graph()
	for _, ei := range g.InEdges(v.Index()) {
		e := g.Edge(int(ei))
		if x := e.Lifespan.Intersect(t); !x.IsEmpty() {
			v.SendTo(g.IndexOf(e.Src), x, codec.IntWord(c))
		}
	}
}

// Scatter broadcasts the FW label during FW phases; BW messaging is done
// directly in Compute over in-edges.
func (a *SCC) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if v.Phase()%2 != 0 {
		return nil
	}
	st := state.(sccState)
	if st.Scc >= 0 {
		return nil
	}
	return []core.OutMsg{{Value: codec.IntWord(st.Fwd)}}
}

// StateCodec implements core.StateCoder: an sccState is no message payload.
func (a *SCC) StateCodec() codec.Payload {
	return stateCodec[sccState]{func(s *sccState) ([]*int64, *[]int64) { return []*int64{&s.Fwd, &s.Scc, &s.Phase}, nil }}
}

// sccMaster drives the FW/BW phase machine and halts when every interval of
// every vertex is assigned.
type sccMaster struct{}

// BeforeSuperstep advances the phase when the previous superstep was
// globally stable and halts when nothing is left unassigned.
func (m *sccMaster) BeforeSuperstep(mc *engine.MasterControl) {
	if mc.Superstep() <= 2 {
		return
	}
	if mc.AggValue(sccChanged) == sccTrue {
		return
	}
	if mc.AggValue(sccUnassigned) != sccTrue {
		mc.Halt()
		return
	}
	mc.SetPhase(mc.Phase() + 1)
}

// Options returns the run options SCC needs.
func (a *SCC) Options() core.Options {
	return core.Options{
		ActivateAll:  true,
		Master:       &sccMaster{},
		PayloadCodec: codec.Int64{},
		Aggregators: map[string]*engine.Aggregator{
			sccChanged:    engine.BoolOr(),
			sccUnassigned: engine.BoolOr(),
		},
	}
}

// RunSCC executes time-independent strongly connected components.
func RunSCC(g *tgraph.Graph, workers int) (*core.Result, error) {
	a := &SCC{}
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// SCCLabels decodes a vertex's per-interval component labels (the label is
// the maximum vertex id in the component).
func SCCLabels(r *core.Result, id tgraph.VertexID) []IntervalValue {
	st := r.StateByID(id)
	if st == nil {
		return nil
	}
	var out []IntervalValue
	for _, p := range st.Parts() {
		if s, ok := p.Value.(sccState); ok && s.Scc >= 0 {
			out = append(out, IntervalValue{Interval: p.Interval, Value: s.Scc})
		}
	}
	return out
}
