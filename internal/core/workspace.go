package core

import (
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/warp"
)

// workspace is one worker's reusable compute scratch, keyed by
// engine.Context.Worker. A worker goroutine executes one vertex at a time,
// so each workspace is touched by exactly one goroutine and needs no locking.
// All buffers are grow-only: after the first few supersteps the align →
// compute → scatter path of runtime.Run stops allocating. Everything in a
// workspace is valid only until the worker's next vertex — nothing here may
// escape a Run call.
type workspace struct {
	scratch warp.Scratch // the lifespan-clipped inbox, time-warp buffers, group arena, and the vertex's spilled payloads
	tuples  []warp.Tuple // warp output consumed by the compute loop
	vc      VertexCtx    // persistent so &vc never escapes to the heap
}

// workspace returns the vertex's worker's scratch, sizing the per-worker
// array on first use — the effective worker count is not known until the
// engine is running (it clamps to the vertex count).
func (rt *runtime) workspace(ctx *engine.Context) *workspace {
	rt.wsOnce.Do(func() { rt.wss = make([]workspace, ctx.NumWorkers()) })
	return &rt.wss[ctx.Worker()]
}

// fillGaps appends empty-group tuples for the sub-intervals of the state
// partitions no existing tuple covers, so forced-active vertices compute over
// their whole lifespan. Both inputs are temporally partitioned in ascending
// order (the warp contract and the state invariant), so a single merge sweep
// finds the gaps without materializing interval sets.
func fillGaps(tuples []warp.Tuple, parts []warp.IntervalValue) []warp.Tuple {
	n := len(tuples) // gaps append past the sorted prefix; only [0,n) is swept
	ti := 0
	for _, p := range parts {
		cur := p.Interval.Start
		for cur < p.Interval.End {
			for ti < n && tuples[ti].Interval.End <= cur {
				ti++
			}
			if ti < n && tuples[ti].Interval.Start <= cur {
				// Covered through this tuple's end; tuples never span state
				// partitions, so the jump stays inside p.
				cur = tuples[ti].Interval.End
				continue
			}
			gap := p.Interval.End
			if ti < n && tuples[ti].Interval.Start < gap {
				gap = tuples[ti].Interval.Start
			}
			tuples = append(tuples, warp.Tuple{Interval: ival.New(cur, gap), State: p.Value})
			cur = gap
		}
	}
	return tuples
}
