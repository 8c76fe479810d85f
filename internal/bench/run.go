// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Sec. VII) over the synthetic dataset
// profiles: Table 1 (dataset characteristics), Table 2 (speedup ratios),
// Fig. 4 (count/time correlation), Fig. 5 (per-algorithm makespans and
// counts), Fig. 6 (memory footprints, warp-combiner and warp-suppression
// ablations), Fig. 7 (weak scaling), plus the message-encoding and
// lines-of-code measurements of Sec. VI and VII-B8. All of them run through
// one (algorithm × platform) table (platforms.go), which Verify also checks
// against the reference oracles: the Sec. VII-B1 claim that every platform
// gives identical results.
package bench

import (
	"fmt"

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
