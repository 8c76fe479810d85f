package bench

import (
	"fmt"
	"slices"
	"strings"

	"graphite/internal/algorithms"
	"graphite/internal/baseline/chlonos"
	"graphite/internal/baseline/goffish"
	"graphite/internal/baseline/msb"
	"graphite/internal/baseline/tgb"
	"graphite/internal/baseline/valgo"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/ref"
	"graphite/internal/tgraph"
)

// Every platform is asked the same question of a graph: journeys leave the
// first vertex at 0, LD's arrive at the last vertex by the horizon, and
// PageRank runs Config.PRIterations supersteps.
func source(g *tgraph.Graph) tgraph.VertexID { return g.VertexAt(0).ID }
func target(g *tgraph.Graph) tgraph.VertexID { return g.VertexAt(g.NumVertices() - 1).ID }

// answer is one platform's run of one algorithm, or the algorithm's oracle:
// the run's record and readers for its result. Verify compares a value read
// with the oracle's (same); a platform leaves nil the readers it has no
// answer for.
type answer struct {
	End *obs.RunEnd
	// Vertex reads a vertex's answer (the path algorithms).
	Vertex func(v int) any
	// Point reads a vertex's answer at a time-point.
	Point func(v int, t ival.Time) any
	// Parent reads TMST's tree: the vertex a reached vertex's earliest
	// arrival came from.
	Parent func(v int) tgraph.VertexID
}

// runner runs one platform on a graph.
type runner func(g *tgraph.Graph, cfg Config) (*answer, error)

// row is one algorithm of the platform table and its oracle. GRAPHITE runs
// the catalog program and icm reads its result; MSB and Chlonos run spec
// once per snapshot and state reads one vertex state of a snapshot; TGB and
// GoFFish have a runner each.
type row struct {
	oracle   func(g *tgraph.Graph, cfg Config) *answer
	icm      func(r *core.Result) *answer
	spec     func(g *tgraph.Graph, cfg Config) valgo.Spec
	state    func(st any) any
	tgb, gof runner
}

// table is the one (algorithm × platform) dispatch: Run measures a cell of
// it, Verify checks a cell against its row's oracle.
var table = map[Algo]row{
	BFS: {
		oracle: snapshots(func(g *tgraph.Graph, _ Config, t ival.Time) []int64 { return ref.BFSLevels(g, t, source(g)) }),
		icm:    func(r *core.Result) *answer { return &answer{Point: icmInt(r)} },
		spec:   func(g *tgraph.Graph, _ Config) valgo.Spec { return valgo.BFSSpec(int64(source(g))) },
		state:  func(st any) any { return st },
	},
	WCC: {
		oracle: snapshots(func(g *tgraph.Graph, _ Config, t ival.Time) []int64 { return ref.WCCLabels(g, t) }),
		icm:    func(r *core.Result) *answer { return &answer{Point: icmInt(r)} },
		spec:   func(*tgraph.Graph, Config) valgo.Spec { return valgo.WCCSpec() },
		state:  func(st any) any { return st },
	},
	SCC: {
		oracle: snapshots(func(g *tgraph.Graph, _ Config, t ival.Time) []int64 { return ref.SCCLabels(g, t) }),
		icm:    func(r *core.Result) *answer { return &answer{Point: icmIntervals(r, algorithms.SCCLabels, -1)} },
		spec:   func(*tgraph.Graph, Config) valgo.Spec { return valgo.SCCSpec() },
		state:  func(st any) any { return valgo.SCCLabel(st) },
	},
	PR: {
		oracle: snapshots(func(g *tgraph.Graph, cfg Config, t ival.Time) []float64 {
			return ref.PageRank(g, t, cfg.PRIterations, 0.85)
		}),
		icm: func(r *core.Result) *answer {
			return &answer{Point: func(v int, t ival.Time) any { x, _ := r.State(v).Get(t); return x }}
		},
		spec:  func(_ *tgraph.Graph, cfg Config) valgo.Spec { return valgo.PageRankSpec(cfg.PRIterations) },
		state: func(st any) any { return st },
	},
	SSSP: {
		oracle: func(g *tgraph.Graph, _ Config) *answer {
			d := ref.SSSP(g, source(g), 0)
			return &answer{
				Vertex: func(v int) any { return slices.Min(d.Cost[v][:d.Tmax]) },
				Point:  func(v int, t ival.Time) any { return d.Cost[v][t] },
			}
		},
		icm: func(r *core.Result) *answer {
			return &answer{
				Vertex: func(v int) any { return algorithms.MinInt64State(r.State(v), algorithms.Unreachable) },
				Point:  icmInt(r),
			}
		},
		tgb: on(forward(tgb.RunSSSP), func(r *tgb.PathResult) *answer {
			return &answer{End: r.Metrics, Vertex: vertex(r.MinCost), Point: point(r.CostAt)}
		}),
		gof: on(forward(march(goffish.NewSSSP)), gofBest),
	},
	EAT: {
		oracle: journeys(func(g *tgraph.Graph) []int64 { return ref.EAT(g, source(g), 0) }),
		icm:    icmVertex(algorithms.EarliestArrival),
		tgb:    on(forward(tgb.RunEAT), tgbVertex((*tgb.PathResult).EarliestReached)),
		gof:    on(forward(march(goffish.NewEAT)), gofBest),
	},
	FAST: {
		oracle: journeys(func(g *tgraph.Graph) []int64 { return ref.Fastest(g, source(g), 0) }),
		icm:    icmVertex(algorithms.FastestDuration),
		tgb:    on(forward(tgb.RunFAST), tgbVertex((*tgb.PathResult).MinCost)),
		gof: on(forward(march(goffish.NewFAST)), func(r *goffish.Result) *answer {
			return &answer{End: &r.Metrics, Vertex: func(v int) any { return goffish.Duration(r, v) }}
		}),
	},
	LD: {
		oracle: journeys(func(g *tgraph.Graph) []int64 { return ref.LatestDeparture(g, target(g), g.Horizon()) }),
		icm:    icmVertex(algorithms.LatestDeparture),
		tgb:    on(backward(tgb.RunLD), tgbVertex((*tgb.PathResult).LatestReached)),
		gof:    on(backward(goffish.RunLD), gofBest),
	},
	TMST: {
		// A tree's arrivals are the earliest arrivals; its parents are
		// checked hop by hop (Verify).
		oracle: journeys(func(g *tgraph.Graph) []int64 { return ref.EAT(g, source(g), 0) }),
		icm: func(r *core.Result) *answer {
			tree := map[tgraph.VertexID]algorithms.TreeEdge{}
			for _, te := range algorithms.TMSTTree(r) {
				tree[te.Vertex] = te
			}
			edge := func(v int) (algorithms.TreeEdge, bool) { te, ok := tree[r.Graph.VertexAt(v).ID]; return te, ok }
			return &answer{
				Vertex: func(v int) any {
					if te, ok := edge(v); ok {
						return te.Arrival
					}
					return algorithms.Unreachable
				},
				Parent: func(v int) tgraph.VertexID { te, _ := edge(v); return te.Parent },
			}
		},
		tgb: on(forward(tgb.RunTMST), func(r *tgb.PathResult) *answer {
			return &answer{End: r.Metrics, Vertex: vertex(r.EarliestReached),
				Parent: func(v int) tgraph.VertexID { return tgraph.VertexID(r.Parent(v)) }}
		}),
		gof: on(forward(march(goffish.NewTMST)), func(r *goffish.Result) *answer {
			return &answer{End: &r.Metrics,
				Vertex: func(v int) any { return r.States[v].(goffish.TMSTVal).Arrival },
				Parent: func(v int) tgraph.VertexID { return tgraph.VertexID(r.States[v].(goffish.TMSTVal).Parent) }}
		}),
	},
	RH: {
		oracle: func(g *tgraph.Graph, _ Config) *answer {
			return &answer{Vertex: vertex(at(ref.Reachable(g, source(g), 0)))}
		},
		icm: icmVertex(algorithms.Reachable),
		tgb: on(forward(tgb.RunRH), func(r *tgb.PathResult) *answer {
			return &answer{End: r.Metrics, Vertex: func(v int) any { return r.EarliestReached(v) != tgb.Unreachable }}
		}),
		gof: on(forward(march(goffish.NewRH)), func(r *goffish.Result) *answer {
			return &answer{End: &r.Metrics, Vertex: func(v int) any { return goffish.BestCost(r, v) == 1 }}
		}),
	},
	// LCC's answer at a time-point is a vertex's (closed wedges, out-degree);
	// GRAPHITE keeps only the coefficient they give (same).
	LCC: {
		oracle: snapshots(func(g *tgraph.Graph, _ Config, t ival.Time) [][2]int64 {
			counts, degs := ref.LCCCounts(g, t)
			out := make([][2]int64, len(counts))
			for v := range out {
				out[v] = [2]int64{counts[v], degs[v]}
			}
			return out
		}),
		icm: func(r *core.Result) *answer {
			return &answer{Point: func(v int, t ival.Time) any { return algorithms.Coefficient(r, r.Graph.VertexAt(v).ID, t) }}
		},
		tgb: on(tgb.RunLCC, func(r *tgb.ClusteringResult) *answer {
			return &answer{End: r.Metrics, Point: func(v int, t ival.Time) any { return [2]int64{r.ClosuresAt(v, t), r.DegAt(v, t)} }}
		}),
		gof: on(goffish.RunLCC, func(r *goffish.ClusteringResult) *answer {
			return &answer{End: &r.Metrics, Point: func(v int, t ival.Time) any { return [2]int64{r.Closures[t][v], r.Degs[t][v]} }}
		}),
	},
	TC: {
		oracle: snapshots(func(g *tgraph.Graph, _ Config, t ival.Time) []int64 { return ref.Closures(g, t) }),
		icm:    func(r *core.Result) *answer { return &answer{Point: icmIntervals(r, algorithms.Closures, 0)} },
		tgb:    on(tgb.RunTC, func(r *tgb.ClusteringResult) *answer { return &answer{End: r.Metrics, Point: point(r.ClosuresAt)} }),
		gof: on(goffish.RunTC, func(r *goffish.ClusteringResult) *answer {
			return &answer{End: &r.Metrics, Point: func(v int, t ival.Time) any { return r.Closures[t][v] }}
		}),
	},
}

// Run executes one (platform, algorithm) pair over a graph and returns the
// run's record.
func Run(cfg Config, pl Platform, al Algo, g *tgraph.Graph) (*obs.RunEnd, error) {
	a, err := run(cfg, pl, al, g)
	if err != nil {
		return nil, err
	}
	return a.End, nil
}

// run looks the pair up in the table and runs it.
func run(cfg Config, pl Platform, al Algo, g *tgraph.Graph) (*answer, error) {
	r, ok := table[al]
	switch {
	case !ok:
	case pl == ICM:
		prog, opts, err := algorithms.New(g, strings.ToLower(string(al)), algorithms.Params{
			Source:     source(g),
			Target:     target(g),
			Iterations: cfg.PRIterations,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		opts.NumWorkers = cfg.Workers
		opts.Tracer = cfg.Tracer
		opts.Registry = cfg.Registry
		res, err := core.Run(g, prog, opts)
		if err != nil {
			return nil, err
		}
		a := r.icm(res)
		a.End = res.Metrics
		return a, nil
	case pl == MSB && r.spec != nil:
		res, err := msb.Run(g, r.spec(g, cfg), cfg.Workers)
		if err != nil {
			return nil, err
		}
		return &answer{End: &res.Metrics, Point: func(v int, t ival.Time) any { return r.state(res.State(v, t)) }}, nil
	case pl == CHL && r.spec != nil:
		res, err := chlonos.Run(g, r.spec(g, cfg), cfg.BatchSize, cfg.Workers)
		if err != nil {
			return nil, err
		}
		return &answer{End: &res.Metrics, Point: func(v int, t ival.Time) any { return r.state(res.State(v, t)) }}, nil
	case pl == TGB && r.tgb != nil:
		return r.tgb(g, cfg)
	case pl == GOF && r.gof != nil:
		return r.gof(g, cfg)
	}
	return nil, fmt.Errorf("bench: %s does not run %q", pl, al)
}

// PlatformsFor returns the platforms that can run an algorithm, ICM first.
func PlatformsFor(al Algo) []Platform {
	if IsTD(al) {
		return []Platform{ICM, TGB, GOF}
	}
	return []Platform{ICM, MSB, CHL}
}

// on adapts a baseline's run and the reader of its result into a runner.
func on[R any](run func(g *tgraph.Graph, workers int) (R, error), read func(R) *answer) runner {
	return func(g *tgraph.Graph, cfg Config) (*answer, error) {
		r, err := run(g, cfg.Workers)
		if err != nil {
			return nil, err
		}
		return read(r), nil
	}
}

// pathRun is a baseline's path algorithm: journeys from (or, for LD, to) a
// vertex, starting at (arriving by) a time-point.
type pathRun[R any] func(g *tgraph.Graph, at tgraph.VertexID, t ival.Time, workers int) (R, error)

// forward asks a path algorithm for journeys from the source at 0.
func forward[R any](run pathRun[R]) func(*tgraph.Graph, int) (R, error) {
	return func(g *tgraph.Graph, w int) (R, error) { return run(g, source(g), 0, w) }
}

// backward asks LD for journeys to the target by the horizon.
func backward[R any](run pathRun[R]) func(*tgraph.Graph, int) (R, error) {
	return func(g *tgraph.Graph, w int) (R, error) { return run(g, target(g), g.Horizon(), w) }
}

// march runs GoFFish's forward time-march with one path logic.
func march(logic func(tgraph.VertexID, ival.Time) goffish.PathLogic) pathRun[*goffish.Result] {
	return func(g *tgraph.Graph, at tgraph.VertexID, t ival.Time, w int) (*goffish.Result, error) {
		return goffish.RunForward(g, logic(at, t), w)
	}
}

// gofBest reads GoFFish's per-vertex int64 answer.
func gofBest(r *goffish.Result) *answer {
	return &answer{End: &r.Metrics, Vertex: func(v int) any { return goffish.BestCost(r, v) }}
}

// tgbVertex reads a TGB path run's per-vertex answer with one accessor.
func tgbVertex(read func(r *tgb.PathResult, v int) int64) func(*tgb.PathResult) *answer {
	return func(r *tgb.PathResult) *answer {
		return &answer{End: r.Metrics, Vertex: func(v int) any { return read(r, v) }}
	}
}

// icmVertex reads GRAPHITE's per-vertex answer with one accessor.
func icmVertex[T any](read func(r *core.Result, id tgraph.VertexID) T) func(*core.Result) *answer {
	return func(r *core.Result) *answer {
		return &answer{Vertex: func(v int) any { return read(r, r.Graph.VertexAt(v).ID) }}
	}
}

// icmInt reads an int64 state at a time-point; a point without one is
// unreached.
func icmInt(r *core.Result) func(int, ival.Time) any {
	return func(v int, t ival.Time) any {
		if x, ok := r.State(v).Get(t); ok {
			return x
		}
		return algorithms.Unreachable
	}
}

// icmIntervals reads a decoded per-interval answer at a time-point, or dflt
// outside every interval.
func icmIntervals(r *core.Result, decode func(*core.Result, tgraph.VertexID) []algorithms.IntervalValue, dflt int64) func(int, ival.Time) any {
	return func(v int, t ival.Time) any {
		for _, iv := range decode(r, r.Graph.VertexAt(v).ID) {
			if iv.Interval.Contains(t) {
				return iv.Value
			}
		}
		return dflt
	}
}

// snapshots builds an oracle answered snapshot by snapshot: each
// time-point's vector is computed once, when first read.
func snapshots[T any](at func(g *tgraph.Graph, cfg Config, t ival.Time) []T) func(*tgraph.Graph, Config) *answer {
	return func(g *tgraph.Graph, cfg Config) *answer {
		memo := map[ival.Time][]T{}
		return &answer{Point: func(v int, t ival.Time) any {
			xs, ok := memo[t]
			if !ok {
				xs = at(g, cfg, t)
				memo[t] = xs
			}
			return xs[v]
		}}
	}
}

// journeys builds an oracle with one answer per vertex.
func journeys(all func(g *tgraph.Graph) []int64) func(*tgraph.Graph, Config) *answer {
	return func(g *tgraph.Graph, _ Config) *answer { return &answer{Vertex: vertex(at(all(g)))} }
}

func at[T any](xs []T) func(int) T { return func(v int) T { return xs[v] } }

func vertex[T any](f func(int) T) func(int) any { return func(v int) any { return f(v) } }

func point[T any](f func(int, ival.Time) T) func(int, ival.Time) any {
	return func(v int, t ival.Time) any { return f(v, t) }
}
