package core_test

import (
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/gen"
	"graphite/internal/tgraph"
)

// TestPlanMatchesOracleForCatalog derives the scatter plan under the Options
// every catalog algorithm actually runs with, over generated graphs of each
// lifespan and property shape, and compares it with the reference oracle.
func TestPlanMatchesOracleForCatalog(t *testing.T) {
	graphs := []*tgraph.Graph{tgraph.TransitExample()}
	for _, p := range []gen.Profile{
		gen.Tiny("catalog-mixed", 60, 3, 12, gen.MixedLife),
		gen.TwitterLike(0.02),
		gen.USRNLike(0.02),
		gen.MAGLike(0.02),
	} {
		g, err := gen.Generate(p, 5)
		if err != nil {
			t.Fatalf("generate %s: %v", p.Name, err)
		}
		graphs = append(graphs, g)
	}
	for gi, g := range graphs {
		src := g.VertexAt(0).ID
		for _, name := range algorithms.Names() {
			_, opts, err := algorithms.New(g, name, algorithms.Params{Source: src, Target: src})
			if err != nil {
				t.Fatalf("graph %d: %s: %v", gi, name, err)
			}
			if err := core.CheckPlanAgainstOracle(g, opts); err != nil {
				t.Errorf("graph %d: %s: %v", gi, name, err)
			}
		}
	}
}
