// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Sec. VII) over the synthetic dataset
// profiles: Table 1 (dataset characteristics), Table 2 (speedup ratios),
// Fig. 4 (count/time correlation), Fig. 5 (per-algorithm makespans and
// counts), Fig. 6 (memory footprints, warp-combiner and warp-suppression
// ablations), Fig. 7 (weak scaling), plus the message-encoding and
// lines-of-code measurements of Sec. VI and VII-B8.
package bench

import (
	"fmt"
	"strings"

	"graphite/internal/algorithms"
	"graphite/internal/baseline/chlonos"
	"graphite/internal/baseline/goffish"
	"graphite/internal/baseline/msb"
	"graphite/internal/baseline/tgb"
	"graphite/internal/baseline/valgo"
	"graphite/internal/core"
	"graphite/internal/gen"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// Platform names the five execution platforms of the evaluation.
type Platform string

// Platforms.
const (
	ICM Platform = "GRAPHITE" // interval-centric model (this paper)
	MSB Platform = "MSB"      // multi-snapshot baseline
	CHL Platform = "Chlonos"  // Chronos clone
	TGB Platform = "TGB"      // transformed graph baseline
	GOF Platform = "GoFFish"  // GoFFish-TS
)

// Algo names the twelve algorithms.
type Algo string

// Algorithms, TI then TD, in the paper's order.
const (
	BFS  Algo = "BFS"
	WCC  Algo = "WCC"
	SCC  Algo = "SCC"
	PR   Algo = "PR"
	SSSP Algo = "SSSP"
	EAT  Algo = "EAT"
	FAST Algo = "FAST"
	LD   Algo = "LD"
	TMST Algo = "TMST"
	RH   Algo = "RH"
	LCC  Algo = "LCC"
	TC   Algo = "TC"
)

// TIAlgos are the time-independent algorithms (run on ICM, MSB, Chlonos).
var TIAlgos = []Algo{BFS, WCC, SCC, PR}

// TDAlgos are the time-dependent algorithms (run on ICM, TGB, GoFFish).
var TDAlgos = []Algo{SSSP, EAT, FAST, LD, TMST, RH, LCC, TC}

// IsTD reports whether the algorithm is time-dependent.
func IsTD(a Algo) bool {
	for _, x := range TDAlgos {
		if x == a {
			return true
		}
	}
	return false
}

// Config parameterizes the harness.
type Config struct {
	// Scale multiplies the dataset profile sizes.
	Scale gen.Scale
	// Workers is the BSP worker count (the paper uses 8 nodes).
	Workers int
	// BatchSize is Chlonos's snapshots-per-batch (memory limit model).
	BatchSize int
	// PRIterations is the fixed PageRank superstep budget.
	PRIterations int
	// Seed drives the dataset generators.
	Seed int64
	// Tracer and Registry, when set, are threaded into every ICM run (the
	// baselines keep their own engine-internal metrics): the tracer receives
	// the per-superstep event stream, the registry the run counters.
	Tracer   obs.Tracer
	Registry *obs.Registry
}

// DefaultConfig mirrors the paper's setup at laptop scale.
func DefaultConfig() Config {
	return Config{Scale: 1.0, Workers: 8, BatchSize: 6, PRIterations: 10, Seed: 42}
}

// Dataset is one generated graph plus its profile.
type Dataset struct {
	Profile gen.Profile
	Graph   *tgraph.Graph
}

// Datasets generates the six Table 1 profiles at the configured scale.
func Datasets(cfg Config) ([]Dataset, error) {
	var out []Dataset
	for _, p := range gen.AllProfiles(cfg.Scale) {
		g, err := gen.Generate(p, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("bench: generate %s: %w", p.Name, err)
		}
		out = append(out, Dataset{Profile: p, Graph: g})
	}
	return out, nil
}

// Run executes one (platform, algorithm) pair over a graph and returns the
// run metrics. The source is the first vertex; LD targets the last vertex.
func Run(cfg Config, pl Platform, al Algo, g *tgraph.Graph) (*obs.RunEnd, error) {
	source := g.VertexAt(0).ID
	target := g.VertexAt(g.NumVertices() - 1).ID
	w := cfg.Workers
	switch pl {
	case ICM:
		r, err := runICM(cfg, al, g, source, target, w)
		if err != nil {
			return nil, err
		}
		return r.Metrics, nil
	case MSB:
		spec, err := tiSpec(cfg, al, source)
		if err != nil {
			return nil, err
		}
		r, err := msb.Run(g, spec, w)
		if err != nil {
			return nil, err
		}
		return &r.Metrics, nil
	case CHL:
		spec, err := tiSpec(cfg, al, source)
		if err != nil {
			return nil, err
		}
		r, err := chlonos.Run(g, spec, cfg.BatchSize, w)
		if err != nil {
			return nil, err
		}
		return &r.Metrics, nil
	case TGB:
		return runTGB(al, g, source, target, w)
	case GOF:
		return runGOF(al, g, source, target, w)
	}
	return nil, fmt.Errorf("bench: unknown platform %q", pl)
}

func runICM(cfg Config, al Algo, g *tgraph.Graph, source, target tgraph.VertexID, w int) (*core.Result, error) {
	prog, opts, err := algorithms.New(g, strings.ToLower(string(al)), algorithms.Params{
		Source:     source,
		Target:     target,
		Iterations: cfg.PRIterations,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	opts.NumWorkers = w
	opts.Tracer = cfg.Tracer
	opts.Registry = cfg.Registry
	return core.Run(g, prog, opts)
}

func tiSpec(cfg Config, al Algo, source tgraph.VertexID) (valgo.Spec, error) {
	switch al {
	case BFS:
		return valgo.BFSSpec(int64(source)), nil
	case WCC:
		return valgo.WCCSpec(), nil
	case SCC:
		return valgo.SCCSpec(), nil
	case PR:
		return valgo.PageRankSpec(cfg.PRIterations), nil
	}
	return valgo.Spec{}, fmt.Errorf("bench: %q is not a TI algorithm", al)
}

func runTGB(al Algo, g *tgraph.Graph, source, target tgraph.VertexID, w int) (*obs.RunEnd, error) {
	switch al {
	case SSSP:
		r, err := tgb.RunSSSP(g, source, 0, w)
		return pathMetrics(r, err)
	case EAT:
		r, err := tgb.RunEAT(g, source, 0, w)
		return pathMetrics(r, err)
	case FAST:
		r, err := tgb.RunFAST(g, source, 0, w)
		return pathMetrics(r, err)
	case LD:
		r, err := tgb.RunLD(g, target, g.Horizon(), w)
		return pathMetrics(r, err)
	case TMST:
		r, err := tgb.RunTMST(g, source, 0, w)
		return pathMetrics(r, err)
	case RH:
		r, err := tgb.RunRH(g, source, 0, w)
		return pathMetrics(r, err)
	case LCC:
		r, err := tgb.RunLCC(g, w)
		if err != nil {
			return nil, err
		}
		return r.Metrics, nil
	case TC:
		r, err := tgb.RunTC(g, w)
		if err != nil {
			return nil, err
		}
		return r.Metrics, nil
	}
	return nil, fmt.Errorf("bench: %q is not a TD algorithm", al)
}

func pathMetrics(r *tgb.PathResult, err error) (*obs.RunEnd, error) {
	if err != nil {
		return nil, err
	}
	return r.Metrics, nil
}

func runGOF(al Algo, g *tgraph.Graph, source, target tgraph.VertexID, w int) (*obs.RunEnd, error) {
	switch al {
	case SSSP:
		r, err := goffish.RunForward(g, goffish.NewSSSP(source, 0), w)
		return gofMetrics(r, err)
	case EAT:
		r, err := goffish.RunForward(g, goffish.NewEAT(source, 0), w)
		return gofMetrics(r, err)
	case FAST:
		r, err := goffish.RunForward(g, goffish.NewFAST(source, 0), w)
		return gofMetrics(r, err)
	case LD:
		r, err := goffish.RunLD(g, target, g.Horizon(), w)
		return gofMetrics(r, err)
	case TMST:
		r, err := goffish.RunForward(g, goffish.NewTMST(source, 0), w)
		return gofMetrics(r, err)
	case RH:
		r, err := goffish.RunForward(g, goffish.NewRH(source, 0), w)
		return gofMetrics(r, err)
	case LCC:
		r, err := goffish.RunLCC(g, w)
		if err != nil {
			return nil, err
		}
		return &r.Metrics, nil
	case TC:
		r, err := goffish.RunTC(g, w)
		if err != nil {
			return nil, err
		}
		return &r.Metrics, nil
	}
	return nil, fmt.Errorf("bench: %q is not a TD algorithm", al)
}

func gofMetrics(r *goffish.Result, err error) (*obs.RunEnd, error) {
	if err != nil {
		return nil, err
	}
	return &r.Metrics, nil
}

// PlatformsFor returns the platforms that can run an algorithm, ICM first.
func PlatformsFor(al Algo) []Platform {
	if IsTD(al) {
		return []Platform{ICM, TGB, GOF}
	}
	return []Platform{ICM, MSB, CHL}
}
