package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"graphite/internal/codec"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
	"graphite/internal/warp"
)

// runtime adapts an ICM Program to the BSP engine: it owns the partitioned
// vertex states, runs the pre-compute time-warp over incoming messages, and
// the pre-scatter alignment of updated states with out-edge property
// partitions.
type runtime struct {
	g          *tgraph.Graph
	prog       Program
	opts       Options
	combine    warp.CombineFunc // nil when absent or disabled
	absorb     warp.CombineFunc // the WarpCombiner of a run with a seed, else nil: see absorbs
	stateCodec codec.Payload    // StateCodecOf(prog, opts)
	states     []*PartitionedState
	plan       *scatterPlan // shared with every run over g under the same planKey; read-only
	// window is Options.Window, Universe when that clips nothing: a vertex
	// lives, and holds state, for its lifespan ∩ window. match is what an
	// update must intersect per piece: the plan's own, except that under a
	// window a slack-translated trigger is the translation of the piece as
	// the window leaves it, which the run lays out for itself. (Without a
	// slack label the trigger is the piece, and an update inside the window
	// meets the whole piece exactly where it meets the clipped one.)
	window ival.Interval
	match  []ival.Interval
	// nv is the number of vertices the run keeps: every vertex of g, or
	// those the window keeps (VertexCtx.NumVertices).
	nv int

	// Per-worker reusable scratch; sized lazily at the first Run call, when
	// the engine's effective worker count is known.
	wss    []workspace
	wsOnce sync.Once

	warpCalls       atomic.Int64
	warpSuppressed  atomic.Int64
	stateUpdates    atomic.Int64
	activeIntervals atomic.Int64

	// Trace-only counters (maintained when traced is set): warp group fan-in
	// and the unit-message share the suppression heuristic keys off.
	traced       bool
	mergedGroups atomic.Int64
	msgsIn       atomic.Int64
	unitMsgsIn   atomic.Int64
}

func newRuntime(g *tgraph.Graph, prog Program, opts Options) *runtime {
	rt := &runtime{
		g:          g,
		prog:       prog,
		opts:       opts,
		stateCodec: StateCodecOf(prog, opts),
		states:     make([]*PartitionedState, g.NumVertices()),
		plan:       planFor(g, &opts),
		window:     ival.Universe,
		nv:         g.NumVertices(),
	}
	rt.match = rt.plan.match
	if w := opts.Window; w != (ival.Interval{}) && !w.ContainsInterval(g.Lifespan()) {
		rt.window = w
		rt.nv = g.NumVerticesIn(w)
		if opts.ScatterSlackLabel != "" {
			rt.match = make([]ival.Interval, len(rt.plan.pieces))
			for i, p := range rt.plan.pieces {
				rt.match[i] = p.Intersect(w).Translate(rt.plan.match[i].Start - p.Start)
			}
		}
	}
	if wc, ok := prog.(WarpCombiner); ok {
		if !opts.DisableWarpCombiner {
			rt.combine = wc.CombineWarp
		}
		if slices.ContainsFunc(opts.SeedStates, func(s *PartitionedState) bool { return s != nil }) {
			rt.absorb = wc.CombineWarp
		}
	}
	return rt
}

// counters are the Stats counters a snapshot carries, in its order: a
// replayed superstep neither loses nor double-counts events.
func (rt *runtime) counters() [7]*atomic.Int64 {
	return [7]*atomic.Int64{&rt.warpCalls, &rt.warpSuppressed, &rt.stateUpdates,
		&rt.activeIntervals, &rt.mergedGroups, &rt.msgsIn, &rt.unitMsgsIn}
}

func (rt *runtime) statsSnapshot() Stats {
	var c [7]int64
	for i, p := range rt.counters() {
		c[i] = p.Load()
	}
	return statsOf(rt.states, c)
}

// statsOf is the Stats of a run that ended in states with counters c.
func statsOf(states []*PartitionedState, c [7]int64) Stats {
	s := Stats{WarpCalls: c[0], WarpSuppressed: c[1], StateUpdates: c[2], ActiveIntervals: c[3]}
	for _, st := range states {
		if st != nil && st.NumParts() > s.MaxPartitions {
			s.MaxPartitions = st.NumParts()
		}
	}
	return s
}

// Init implements engine.Program: allocate the state and run the user init,
// then overlay the incremental seed when one exists for this vertex. A
// vertex that does not exist inside the window is left without a state, which
// is what every later step knows a dropped vertex by.
func (rt *runtime) Init(ctx *engine.Context) {
	i := ctx.Vertex()
	v := rt.g.VertexAt(i)
	life := v.Lifespan.Intersect(rt.window)
	if life.IsEmpty() {
		return
	}
	rt.states[i] = NewPartitionedState(life, nil)
	vc := VertexCtx{rt: rt, eng: ctx, ws: rt.workspace(ctx), idx: i, v: v, inInit: true}
	rt.prog.Init(&vc)
	if seed := rt.seedFor(i); seed != nil {
		if err := overlaySeed(rt.states[i], seed); err != nil {
			ctx.Fail(err)
		}
	}
}

func (rt *runtime) seedFor(i int) *PartitionedState {
	if i < len(rt.opts.SeedStates) {
		return rt.opts.SeedStates[i]
	}
	return nil
}

// overlaySeed writes a captured terminal state over a freshly initialized
// one. Partitions are clipped to the (possibly different) lifespan, and the
// final partition's value is extended across any lifespan growth: seedable
// programs fold messages of the form [t, lifespan end), so the value in
// force at the old cut is exactly what a full run over the longer lifespan
// would have carried forward until a later message improved it.
func overlaySeed(st *PartitionedState, seed *PartitionedState) error {
	life := st.Lifespan()
	cover := life.Intersect(ival.From(seed.Lifespan().Start))
	parts, _ := seedOver(seed, life, cover)
	for k, p := range parts {
		iv := p.Interval.Intersect(cover)
		if k == len(parts)-1 {
			iv.End = cover.End
		}
		if err := st.Set(iv, p.Value); err != nil {
			return err
		}
	}
	return nil
}

// seedOver returns the parts of seed that overlaySeed lays over x, an
// interval inside the lifespan life of the seeded vertex: those x meets, the
// last one also standing for every point of x past the seed's end. ok is
// false when x holds a point the overlay leaves to Init: one before the
// seed's start, or any point, when the seed ends before life begins.
func seedOver(seed *PartitionedState, life, x ival.Interval) (parts []warp.IntervalValue, ok bool) {
	sl := seed.Lifespan()
	if x.IsEmpty() || x.Start < sl.Start || !sl.Intersects(life) {
		return nil, false
	}
	return seed.parts[seed.find(x.Start) : seed.find(x.End-1)+1], true
}

// absorbs reports whether vertex dst's seed absorbs a message w over when:
// at every point of when inside dst's lifespan, the value s the overlay puts
// there is combine(s, w) under rt.absorb. Seeded vertices do not compute in
// superstep 1, so there dst holds its overlay, and a seedable state is the
// monotone fold of its messages: every later state absorbs w too, and
// delivering it would change nothing. A spilled or nil payload, an unseeded
// vertex, a point the seed does not cover or a value of another kind is
// never absorbed.
func (rt *runtime) absorbs(dst int, when ival.Interval, w codec.Word) bool {
	seed := rt.seedFor(dst)
	if seed == nil || w.K == codec.KindSpill || w.K == codec.KindNil {
		return false
	}
	life := rt.g.VertexAt(dst).Lifespan.Intersect(rt.window)
	x := when.Intersect(life)
	if x.IsEmpty() {
		return true // the receiver would clip it to nothing
	}
	parts, ok := seedOver(seed, life, x)
	if !ok {
		return false
	}
	for _, p := range parts {
		s, ok := codec.WordOf(p.Value)
		if !ok || s.K != w.K || !rt.absorb(s, w).Equal(s) {
			return false
		}
	}
	return true
}

// Run implements engine.Program: one superstep for one active vertex. The
// worker's workspace supplies every buffer the superstep needs, so the
// steady-state align → compute → scatter path performs no allocation.
func (rt *runtime) Run(ctx *engine.Context, msgs []engine.Message) {
	i := ctx.Vertex()
	st := rt.states[i]
	if st == nil {
		return // outside the window
	}
	ws := rt.workspace(ctx)
	ws.scratch.Reset()
	vc := &ws.vc
	*vc = VertexCtx{rt: rt, eng: ctx, ws: ws, idx: i, v: rt.g.VertexAt(i), updated: vc.updated[:0]}

	if ctx.Superstep() == 1 && rt.seedFor(i) != nil {
		// Seeded vertices replace the cold superstep-1 compute with a full
		// re-scatter of their captured state: every terminal partition of a
		// seedable program started life as a state update, so scattering
		// each partition over its own interval regenerates exactly the
		// frontier messages the prior run sent. Those into already-converged
		// regions are absorbed by their receivers' seeds and not sent
		// (VertexCtx.send); those past the old cut propagate the extension.
		targets := rt.plan.targetsOf(i)
		if len(targets) == 0 {
			return
		}
		rt.activeIntervals.Add(int64(st.NumParts()))
		for _, p := range st.Parts() {
			rt.scatterPart(vc, ctx, targets, p.Interval, p.Value)
		}
		return
	}

	tuples := rt.align(ws, st, ctx, msgs, ctx.Superstep())
	if len(tuples) == 0 {
		return
	}
	rt.activeIntervals.Add(int64(len(tuples)))
	if rt.traced {
		var merged int64
		for _, tu := range tuples {
			if len(tu.Msgs) >= 2 {
				merged++
			}
		}
		if merged != 0 {
			rt.mergedGroups.Add(merged)
		}
	}

	// Compute step: one user call per warp tuple.
	for _, tu := range tuples {
		vc.allowed = tu.Interval
		vc.inCompute = true
		rt.prog.Compute(vc, tu.Interval, tu.State, tu.Msgs)
		vc.inCompute = false
		ctx.AddComputeCalls(1)
		if rt.opts.CheckInvariants {
			if err := st.Invariant(); err != nil {
				ctx.Fail(err)
			}
		}
	}
	if len(vc.updated) == 0 {
		return
	}

	// Scatter step: align updated state partitions with the traversed
	// edges' property partitions; one scatter call per non-empty
	// intersection.
	targets := rt.plan.targetsOf(i)
	if len(targets) == 0 {
		return
	}
	upds := coalesceIntervals(vc.updated)
	for _, p := range st.Parts() {
		for _, u := range upds {
			if x := u.Intersect(p.Interval); !x.IsEmpty() {
				rt.scatterPart(vc, ctx, targets, x, p.Value)
			}
		}
	}
}

// align produces the compute tuples for one vertex and superstep: the
// pre-compute time-warp of Sec. IV-B, its suppressed and disabled fallbacks,
// and the whole-lifespan activation paths. The result lives in the worker's
// workspace and is valid only until the worker's next vertex. ctx is where
// the inbox's spilled payloads are read from, if it has any.
func (rt *runtime) align(ws *workspace, st *PartitionedState, ctx *engine.Context, msgs []engine.Message, superstep int) []warp.Tuple {
	tuples := ws.tuples[:0]
	if superstep == 1 || (rt.opts.ActivateAll && len(msgs) == 0) {
		// Superstep 1 runs compute on every vertex for its entire lifespan
		// with no messages (Sec. IV-A); forced-active vertices without
		// messages behave the same way in later supersteps.
		for _, p := range st.Parts() {
			tuples = append(tuples, warp.Tuple{Interval: p.Interval, State: p.Value})
		}
		ws.tuples = tuples
		return tuples
	}
	// Clip message intervals to the vertex lifespan on their way into the
	// warp scratch: warp would do it anyway, and the suppression heuristic
	// must see the effective intervals — a [t, ∞) path message hitting a
	// vertex that lives for one time-point is a unit message in every sense.
	// A spilled payload moves from the inbox slab's table to the scratch's.
	life := st.Lifespan()
	var n, unit int64
	for _, m := range msgs {
		if x := m.When.Intersect(life); !x.IsEmpty() {
			w := m.Word()
			if w.K == codec.KindSpill {
				w = ws.scratch.Spill(ctx.Payload(m))
			}
			ws.scratch.Add(x, w)
			n++
			if x.IsUnit() {
				unit++
			}
		}
	}
	if rt.traced && n > 0 {
		rt.msgsIn.Add(n)
		rt.unitMsgsIn.Add(unit)
	}
	// The suppressed path (Sec. VI): per-point groups when warp is disabled
	// or the inbox is mostly unit-length messages, which warp cannot share.
	points := true
	switch {
	case rt.opts.DisableWarp:
	case !rt.opts.DisableSuppression && n > 0 && float64(unit)/float64(n) > DefaultSuppressionThreshold:
		rt.warpSuppressed.Add(1)
	default:
		rt.warpCalls.Add(1)
		points = false
	}
	tuples = ws.scratch.Sweep(tuples, st.Parts(), rt.combine, points)
	if rt.opts.ActivateAll {
		// Forced-active vertices compute over their whole lifespan: append
		// empty-group tuples for the sub-intervals no message covered.
		// (Superstep 1 and the no-message case returned above.)
		tuples = fillGaps(tuples, st.Parts())
	}
	ws.tuples = tuples
	return tuples
}

// coalesceIntervals sorts and merges overlapping or adjacent intervals in
// place; update lists are tiny, so an insertion sort suffices.
func coalesceIntervals(ivs []ival.Interval) []ival.Interval {
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].Start < ivs[j-1].Start; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	out := ivs[:0]
	for _, iv := range ivs {
		if n := len(out); n > 0 && out[n-1].End >= iv.Start {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// scatterPart invokes Scatter for one updated 〈interval, state〉 against
// every overlapping edge property piece, in target then piece order. Edges
// whose hull the update misses are passed over on one comparison.
func (rt *runtime) scatterPart(vc *VertexCtx, ctx *engine.Context, targets []target, upd ival.Interval, state any) {
	pieces, match := rt.plan.pieces, rt.match
	slots, values, present := rt.plan.slots, rt.plan.values, rt.plan.present
	for k := range targets {
		tg := &targets[k]
		if !tg.hull.Intersects(upd) {
			continue
		}
		e := rt.g.Edge(int(tg.edge))
		for pi := tg.lo; pi < tg.hi; pi++ {
			x := match[pi].Intersect(upd)
			if x.IsEmpty() {
				continue
			}
			vc.piece = pieces[pi]
			if slots > 0 {
				vc.props, vc.propMask = values[int(pi)*slots:][:slots], present[pi]
			}
			vc.scatterX = x
			vc.scatterTo = int(tg.dst)
			vc.inScatter = true
			ctx.AddScatterCalls(1)
			for _, om := range rt.prog.Scatter(vc, e, x, state) {
				when := om.When
				if when == (ival.Interval{}) {
					when = x
				}
				if when.IsEmpty() {
					continue
				}
				vc.send(int(tg.dst), when, om.Value)
			}
			vc.inScatter = false
		}
	}
	vc.props = nil
}
