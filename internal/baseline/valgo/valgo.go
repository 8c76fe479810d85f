// Package valgo implements the time-independent algorithms (BFS, WCC, SCC,
// PageRank) as plain vertex-centric programs over internal/vcm. The MSB and
// Chlonos baselines execute these programs — per snapshot and per snapshot
// batch respectively — so the primitives, not the algorithm logic, are the
// difference under measurement, exactly as in the paper's setup.
package valgo

import (
	"math"

	"graphite/internal/codec"
	"graphite/internal/engine"
	"graphite/internal/vcm"
)

// Unreachable is the sentinel for unvisited/absent values.
const Unreachable = int64(math.MaxInt64)

// MinCombine folds int64 messages to their minimum (BFS/WCC combiner).
func MinCombine(a, b codec.Word) codec.Word {
	if a.Int() < b.Int() {
		return a
	}
	return b
}

// Spec bundles a VCM program with the run options it needs; the baseline
// drivers apply them per snapshot or per batch.
type Spec struct {
	Program vcm.Program
	Options vcm.Options
}

// BFS is vertex-centric breadth-first search from a source vertex id.
type BFS struct {
	Source int64
}

// Init seeds the source at level 0 and broadcasts level 1.
func (p *BFS) Init(ctx vcm.Ctx) {
	if int64(ctx.ID()) != p.Source {
		ctx.SetState(Unreachable)
		return
	}
	ctx.SetState(int64(0))
	ctx.OutEdgesSimple(func(dst int) { ctx.Send(dst, int64(1)) })
}

// Compute adopts the smallest level and rebroadcasts on improvement.
func (p *BFS) Compute(ctx vcm.Ctx, msgs []any) {
	best := ctx.State().(int64)
	for _, m := range msgs {
		if x := m.(int64); x < best {
			best = x
		}
	}
	if best < ctx.State().(int64) {
		ctx.SetState(best)
		ctx.OutEdgesSimple(func(dst int) { ctx.Send(dst, best+1) })
	}
}

// BFSSpec returns the BFS program and options.
func BFSSpec(source int64) Spec {
	return Spec{
		Program: &BFS{Source: source},
		Options: vcm.Options{Combine: MinCombine, PayloadCodec: codec.Int64{}},
	}
}

// WCC is vertex-centric weakly-connected components: minimum id label
// propagation over edges treated as undirected.
type WCC struct{}

// Init claims the own id and broadcasts it both ways.
func (p *WCC) Init(ctx vcm.Ctx) {
	id := int64(ctx.ID())
	ctx.SetState(id)
	p.broadcast(ctx, id)
}

// Compute adopts the smallest label and rebroadcasts on improvement.
func (p *WCC) Compute(ctx vcm.Ctx, msgs []any) {
	best := ctx.State().(int64)
	for _, m := range msgs {
		if x := m.(int64); x < best {
			best = x
		}
	}
	if best < ctx.State().(int64) {
		ctx.SetState(best)
		p.broadcast(ctx, best)
	}
}

func (p *WCC) broadcast(ctx vcm.Ctx, label int64) {
	ctx.OutEdgesSimple(func(dst int) { ctx.Send(dst, label) })
	ctx.InEdgesSimple(func(src int) { ctx.Send(src, label) })
}

// WCCSpec returns the WCC program and options.
func WCCSpec() Spec {
	return Spec{
		Program: &WCC{},
		Options: vcm.Options{Combine: MinCombine, PayloadCodec: codec.Int64{}},
	}
}

// PageRank is vertex-centric PR with a fixed iteration budget, matching the
// ICM implementation's conventions (N = total vertices, dangling mass
// leaks).
type PageRank struct {
	Iterations int
	Damping    float64
}

// Init seeds the uniform rank and scatters the first contributions.
func (p *PageRank) Init(ctx vcm.Ctx) {
	rank := 1 / float64(ctx.NumVertices())
	ctx.SetState(rank)
	p.scatter(ctx, rank)
}

// Compute sums contributions into the damped rank.
func (p *PageRank) Compute(ctx vcm.Ctx, msgs []any) {
	var sum float64
	for _, m := range msgs {
		sum += m.(float64)
	}
	rank := (1-p.Damping)/float64(ctx.NumVertices()) + p.Damping*sum
	ctx.SetState(rank)
	if ctx.Superstep() <= p.Iterations {
		p.scatter(ctx, rank)
	}
}

func (p *PageRank) scatter(ctx vcm.Ctx, rank float64) {
	deg := ctx.OutDegree()
	if deg == 0 {
		return
	}
	share := rank / float64(deg)
	ctx.OutEdgesSimple(func(dst int) { ctx.Send(dst, share) })
}

// PageRankSpec returns the PR program and options.
func PageRankSpec(iterations int) Spec {
	if iterations <= 0 {
		iterations = 10
	}
	return Spec{
		Program: &PageRank{Iterations: iterations, Damping: 0.85},
		Options: vcm.Options{
			ActivateAll:   true,
			MaxSupersteps: iterations + 1,
			Combine:       func(a, b codec.Word) codec.Word { return codec.FloatWord(a.Float() + b.Float()) },
			PayloadCodec:  codec.Float64{},
		},
	}
}

// SCC is the vertex-centric forward-backward coloring algorithm, the same
// machine the ICM version uses (even phases propagate the maximum id along
// out-edges; odd phases propagate component claims along in-edges).
type SCC struct{}

// sccVal is the per-vertex state.
type sccVal struct {
	Fwd   int64
	Scc   int64
	Phase int64
}

// Aggregator names shared with the SCC master; both are engine.BoolOr,
// whose true is sccTrue.
const (
	SCCChanged    = "vscc.changed"
	SCCUnassigned = "vscc.unassigned"
)

var sccTrue = codec.IntWord(1)

// Init enters the first FW round.
func (p *SCC) Init(ctx vcm.Ctx) {
	id := int64(ctx.ID())
	ctx.SetState(sccVal{Fwd: id, Scc: -1, Phase: 0})
	ctx.Aggregate(SCCChanged, sccTrue)
	ctx.Aggregate(SCCUnassigned, sccTrue)
	ctx.OutEdgesSimple(func(dst int) { ctx.Send(dst, id) })
}

// Compute implements both phases under master control.
func (p *SCC) Compute(ctx vcm.Ctx, msgs []any) {
	st := ctx.State().(sccVal)
	if st.Scc >= 0 {
		return
	}
	ctx.Aggregate(SCCUnassigned, sccTrue)
	id := int64(ctx.ID())
	phase := int64(ctx.Phase())

	if st.Phase != phase {
		if phase%2 == 0 {
			ctx.Aggregate(SCCChanged, sccTrue)
			ctx.SetState(sccVal{Fwd: id, Scc: -1, Phase: phase})
			ctx.OutEdgesSimple(func(dst int) { ctx.Send(dst, id) })
			return
		}
		if st.Fwd == id {
			ctx.Aggregate(SCCChanged, sccTrue)
			ctx.SetState(sccVal{Fwd: st.Fwd, Scc: id, Phase: phase})
			ctx.InEdgesSimple(func(src int) { ctx.Send(src, id) })
			return
		}
		ctx.SetState(sccVal{Fwd: st.Fwd, Scc: -1, Phase: phase})
		return
	}

	if phase%2 == 0 {
		best := st.Fwd
		for _, m := range msgs {
			if x := m.(int64); x > best {
				best = x
			}
		}
		if best > st.Fwd {
			ctx.Aggregate(SCCChanged, sccTrue)
			ctx.SetState(sccVal{Fwd: best, Scc: -1, Phase: phase})
			ctx.OutEdgesSimple(func(dst int) { ctx.Send(dst, best) })
		}
		return
	}
	for _, m := range msgs {
		if c := m.(int64); c == st.Fwd {
			ctx.Aggregate(SCCChanged, sccTrue)
			ctx.SetState(sccVal{Fwd: st.Fwd, Scc: c, Phase: phase})
			ctx.InEdgesSimple(func(src int) { ctx.Send(src, c) })
			return
		}
	}
}

// SCCLabel extracts the component label from a final state (-1 when
// unassigned or inactive).
func SCCLabel(state any) int64 {
	if s, ok := state.(sccVal); ok {
		return s.Scc
	}
	return -1
}

// sccMaster drives the phase machine.
type sccMaster struct{}

// BeforeSuperstep advances phases on global stability and halts when every
// vertex is assigned.
func (m *sccMaster) BeforeSuperstep(mc *engine.MasterControl) {
	if mc.Superstep() <= 2 {
		return
	}
	if mc.AggValue(SCCChanged) == sccTrue {
		return
	}
	if mc.AggValue(SCCUnassigned) != sccTrue {
		mc.Halt()
		return
	}
	mc.SetPhase(mc.Phase() + 1)
}

// SCCSpec returns the SCC program and options.
func SCCSpec() Spec {
	return Spec{
		Program: &SCC{},
		Options: vcm.Options{
			ActivateAll:  true,
			Master:       &sccMaster{},
			PayloadCodec: codec.Int64{},
			Aggregators: map[string]*engine.Aggregator{
				SCCChanged:    engine.BoolOr(),
				SCCUnassigned: engine.BoolOr(),
			},
		},
	}
}

// Fresh returns a new Spec of the same kind as spec, so that per-run
// mutable pieces (aggregators, master state) are not shared across the
// independent runs a baseline driver performs.
func Fresh(spec Spec) Spec {
	switch p := spec.Program.(type) {
	case *BFS:
		return BFSSpec(p.Source)
	case *WCC:
		return WCCSpec()
	case *PageRank:
		return PageRankSpec(p.Iterations)
	case *SCC:
		return SCCSpec()
	default:
		return spec
	}
}
