package algorithms

import (
	"fmt"
	"reflect"
	"testing"

	"graphite/internal/core"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/ref"
)

// TestDifferentialSuppressionCombinerMatrix runs BFS, SSSP, and EAT over
// random temporal graphs under every combination of warp suppression and
// combiner ablations, and requires the final partitioned states to be
// bit-for-bit identical across the matrix. The default combination is also
// checked against the internal/ref oracles, so by transitivity every cell of
// the matrix agrees with the brute-force semantics. The three algorithms all
// fold with min over integers, so their results are independent of message
// arrival order and exact equality is the right notion.
func TestDifferentialSuppressionCombinerMatrix(t *testing.T) {
	profiles := []gen.Profile{
		gen.Tiny("diff-unit", 40, 4, 6, gen.UnitLife),
		gen.Tiny("diff-long", 40, 4, 8, gen.LongLife),
		gen.Tiny("diff-mixed", 50, 5, 10, gen.MixedLife),
		gen.Tiny("diff-full", 30, 3, 6, gen.FullLife),
	}
	churn := gen.Tiny("diff-churn", 40, 4, 12, gen.LongLife)
	churn.VertexChurn = true
	profiles = append(profiles, churn)

	type combo struct {
		noSuppression bool
		noCombiner    bool
	}
	combos := []combo{
		{false, false}, // default path: suppression heuristic + inline combiner
		{false, true},
		{true, false},
		{true, true},
	}

	for _, p := range profiles {
		g, err := gen.Generate(p, 2)
		if err != nil {
			t.Fatalf("generate %s: %v", p.Name, err)
		}
		source := g.VertexAt(0).ID

		run := func(prog core.Program, opts core.Options, c combo) *core.Result {
			t.Helper()
			opts.NumWorkers = 2
			opts.DisableSuppression = c.noSuppression
			if c.noCombiner {
				opts.DisableWarpCombiner = true
				opts.Combine = false
			}
			r, err := runWith(g, prog, opts)
			if err != nil {
				t.Fatalf("%s: run: %v", p.Name, err)
			}
			return r
		}
		runAll := func(c combo) [3]*core.Result {
			bfs := &BFS{Source: source}
			sssp := &SSSP{Source: source}
			eat := &EAT{Source: source}
			return [3]*core.Result{
				run(bfs, bfs.Options(), c),
				run(sssp, sssp.Options(), c),
				run(eat, eat.Options(), c),
			}
		}
		names := [3]string{"BFS", "SSSP", "EAT"}

		base := runAll(combos[0])
		for _, c := range combos[1:] {
			got := runAll(c)
			label := fmt.Sprintf("noSuppression=%v noCombiner=%v", c.noSuppression, c.noCombiner)
			for a := range got {
				for v := 0; v < g.NumVertices(); v++ {
					if !reflect.DeepEqual(base[a].State(v).Parts(), got[a].State(v).Parts()) {
						t.Fatalf("%s %s [%s]: vertex %d partitions diverge:\nbase: %v\n got: %v",
							p.Name, names[a], label, v, base[a].State(v).Parts(), got[a].State(v).Parts())
					}
				}
			}
		}

		// Anchor the matrix: the default combination against the oracles.
		for ts := g.Lifespan().Start; ts < g.Horizon(); ts++ {
			want := ref.BFSLevels(g, ts, source)
			for v := 0; v < g.NumVertices(); v++ {
				if got := stateAt(base[0], v, ts, Unreachable); got != want[v] {
					t.Fatalf("%s BFS t=%d vertex %d: level %d, oracle %d", p.Name, ts, v, got, want[v])
				}
			}
		}
		d := ref.SSSP(g, source, 0)
		for v := 0; v < g.NumVertices(); v++ {
			for ts := ival.Time(0); ts < d.Tmax; ts++ {
				if !g.VertexAt(v).Lifespan.Contains(ts) {
					continue
				}
				if got := stateAt(base[1], v, ts, Unreachable); got != d.Cost[v][ts] {
					t.Fatalf("%s SSSP vertex %d t=%d: cost %d, oracle %d", p.Name, v, ts, got, d.Cost[v][ts])
				}
			}
		}
		wantEAT := ref.EAT(g, source, 0)
		for v := 0; v < g.NumVertices(); v++ {
			if got := EarliestArrival(base[2], g.VertexAt(v).ID); got != wantEAT[v] {
				t.Fatalf("%s EAT vertex %d: %d, oracle %d", p.Name, v, got, wantEAT[v])
			}
		}
	}
}
