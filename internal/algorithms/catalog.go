package algorithms

import (
	"fmt"
	"strings"

	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// Params carries the per-algorithm inputs of the catalog. Zero values pick
// sensible defaults: a zero Deadline means the graph horizon, zero
// Iterations means DefaultPRIterations.
type Params struct {
	// Source seeds the traversal algorithms (BFS and the TD path family).
	Source tgraph.VertexID
	// Target is LD's destination vertex.
	Target tgraph.VertexID
	// StartTime is the journey start for the forward TD algorithms.
	StartTime ival.Time
	// Deadline is LD's arrival bound; zero means the graph horizon.
	Deadline ival.Time
	// Iterations is PageRank's superstep budget; zero means
	// DefaultPRIterations.
	Iterations int
	// Window restricts the run to a time window as a view of g
	// (core.Options.Window); every catalog algorithm takes one. The zero
	// value means no window.
	Window ival.Interval
}

// DefaultPRIterations is PageRank's iteration count when Params leaves it
// zero, matching the paper's fixed budget.
const DefaultPRIterations = 10

// optioner is the contract every algorithm in the catalog satisfies.
type optioner interface {
	Options() core.Options
}

// Names lists the catalog's algorithm names, TI then TD, in the paper's
// order.
func Names() []string {
	return []string{"bfs", "wcc", "scc", "pr", "sssp", "eat", "fast", "ld", "tmst", "rh", "lcc", "tc"}
}

// New constructs an algorithm by name with its run options. The CLIs and the
// bench harness share this single catalog, so observability knobs (tracer,
// registry, worker count) are layered onto the returned options in exactly
// one place per caller rather than per algorithm.
func New(g *tgraph.Graph, name string, p Params) (core.Program, core.Options, error) {
	iters := p.Iterations
	if iters <= 0 {
		iters = DefaultPRIterations
	}
	window := p.Window
	if window == (ival.Interval{}) {
		window = ival.Universe
	}
	var prog core.Program
	switch strings.ToLower(name) {
	case "bfs":
		prog = &BFS{Source: p.Source}
	case "wcc":
		prog = &WCC{}
	case "scc":
		prog = &SCC{}
	case "pr", "pagerank":
		prog = NewPageRank(g, iters, 0.85)
	case "sssp":
		prog = &SSSP{Source: p.Source, StartTime: p.StartTime}
	case "eat":
		prog = &EAT{Source: p.Source, StartTime: p.StartTime}
	case "fast":
		prog = &FAST{Source: p.Source, StartTime: p.StartTime, Horizon: g.HorizonIn(window)}
	case "ld":
		deadline := p.Deadline
		if deadline == 0 {
			deadline = g.HorizonIn(window)
		}
		prog = &LD{Target: p.Target, Deadline: deadline}
	case "tmst":
		prog = &TMST{Source: p.Source, StartTime: p.StartTime}
	case "rh":
		prog = &RH{Source: p.Source, StartTime: p.StartTime}
	case "lcc":
		prog = NewLCC(g)
	case "tc":
		prog = &TC{}
	default:
		return nil, core.Options{}, fmt.Errorf("algorithms: unknown algorithm %q (have %s)",
			name, strings.Join(Names(), " "))
	}
	opts := prog.(optioner).Options()
	opts.Window = p.Window
	return prog, opts, nil
}
