// Package msb implements the Multi-Snapshot Baseline of Sec. VII-A3: a
// time-independent algorithm is executed independently on every snapshot of
// the temporal graph with plain vertex-centric logic. Nothing is shared
// across snapshots — the paper's strawman that ICM's warp sharing is
// measured against.
package msb

import (
	"graphite/internal/baseline/valgo"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
	"graphite/internal/vcm"
)

// Result holds per-snapshot vertex states and the accumulated metrics.
type Result struct {
	Graph   *tgraph.Graph
	Metrics obs.RunEnd
	// Snapshots maps a snapshot time-point to its final vertex states.
	Snapshots map[ival.Time]*vcm.Result
}

// State returns the final state of vertex index v in the snapshot at t.
func (r *Result) State(v int, t ival.Time) any {
	s, ok := r.Snapshots[t]
	if !ok {
		return nil
	}
	return s.State(v)
}

// Run executes the spec once per snapshot over the graph's observable
// window with the given worker count.
func Run(g *tgraph.Graph, spec valgo.Spec, workers int) (*Result, error) {
	out := &Result{Graph: g, Snapshots: map[ival.Time]*vcm.Result{}}
	opts := spec.Options
	opts.NumWorkers = workers
	for t := g.Lifespan().Start; t < g.Horizon(); t++ {
		// Aggregators and master state are per-run; rebuild the spec so
		// snapshots stay independent.
		snapSpec := valgo.Fresh(spec)
		snapOpts := opts
		snapOpts.Aggregators = snapSpec.Options.Aggregators
		snapOpts.Master = snapSpec.Options.Master
		r, err := vcm.RunSnapshot(g, t, snapSpec.Program, snapOpts)
		if err != nil {
			return nil, err
		}
		out.Snapshots[t] = r
		out.Metrics.Add(*r.Metrics)
	}
	return out, nil
}
