package chaos

import (
	"fmt"
	"sync"

	"graphite/internal/engine"
)

// AnyVertex makes a PanicPlan fire on whichever vertex of the superstep
// executes first.
const AnyVertex = -1

// PanicPlan schedules one injected user-program panic: it fires the first
// time a vertex matching Vertex executes in superstep Superstep, then never
// again — modelling a transient worker fault that a replay survives. Plans
// with Superstep 1 fire during Init, before any checkpoint exists, so they
// make the run fail rather than recover.
type PanicPlan struct {
	Superstep int // 1-based superstep to fire in
	Vertex    int // dense vertex index, or AnyVertex
}

// FaultyProgram wraps an engine.Program and panics on schedule. Use Wrap as
// core.Options.WrapProgram (or wrap an engine program directly) and Panics
// to assert the faults actually fired. A FaultyProgram tracks which plans
// fired across rollbacks, so it must not be reused between runs.
type FaultyProgram struct {
	mu     sync.Mutex
	inner  engine.Program
	plans  []PanicPlan
	fired  []bool
	panics int
}

// NewFaultyProgram schedules the given panics.
func NewFaultyProgram(plans ...PanicPlan) *FaultyProgram {
	return &FaultyProgram{plans: plans, fired: make([]bool, len(plans))}
}

// Wrap binds the inner program and returns the program to hand to the
// engine. When the inner program supports checkpointing (engine.Snapshotter)
// the returned wrapper does too; otherwise it deliberately does not, so the
// engine's CheckpointEvery validation still works through the wrapper.
func (f *FaultyProgram) Wrap(p engine.Program) engine.Program {
	f.mu.Lock()
	f.inner = p
	f.mu.Unlock()
	if snap, ok := p.(engine.Snapshotter); ok {
		return &snapshottingFaulty{FaultyProgram: f, Snapshotter: snap}
	}
	return f
}

// Panics returns how many scheduled panics have fired.
func (f *FaultyProgram) Panics() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.panics
}

func (f *FaultyProgram) maybePanic(superstep, vertex int) {
	f.mu.Lock()
	for i, p := range f.plans {
		if f.fired[i] || p.Superstep != superstep {
			continue
		}
		if p.Vertex != AnyVertex && p.Vertex != vertex {
			continue
		}
		f.fired[i] = true
		f.panics++
		f.mu.Unlock()
		panic(fmt.Sprintf("chaos: injected panic at vertex %d, superstep %d", vertex, superstep))
	}
	f.mu.Unlock()
}

// Init implements engine.Program.
func (f *FaultyProgram) Init(ctx *engine.Context) {
	f.maybePanic(ctx.Superstep(), ctx.Vertex())
	f.inner.Init(ctx)
}

// Run implements engine.Program.
func (f *FaultyProgram) Run(ctx *engine.Context, msgs []engine.Message) {
	f.maybePanic(ctx.Superstep(), ctx.Vertex())
	f.inner.Run(ctx, msgs)
}

// snapshottingFaulty adds the Snapshotter contract when the inner program
// has it. The panic bookkeeping itself is deliberately NOT part of the
// snapshot: a fired fault stays fired across rollbacks, which is exactly
// what makes the injected fault transient.
type snapshottingFaulty struct {
	*FaultyProgram
	engine.Snapshotter
}
