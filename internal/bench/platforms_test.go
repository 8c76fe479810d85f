package bench

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// graphSet is a family of small graphs the platform table is checked on,
// with the worker count it runs and Chlonos's snapshots per batch.
type graphSet struct {
	name    string
	workers int
	batch   map[Algo]int // per TI algorithm; 4 when unnamed
	graphs  func(t *testing.T) []*tgraph.Graph
}

// generate builds each profile at each seed.
func generate(t *testing.T, seeds []int64, profiles ...gen.Profile) []*tgraph.Graph {
	t.Helper()
	var gs []*tgraph.Graph
	for _, p := range profiles {
		for _, seed := range seeds {
			g, err := gen.Generate(p, seed)
			if err != nil {
				t.Fatalf("generate %s/%d: %v", p.Name, seed, err)
			}
			gs = append(gs, g)
		}
	}
	return gs
}

func churn(p gen.Profile) gen.Profile { p.VertexChurn = true; return p }

var graphSets = []graphSet{
	{"tiny", 4, nil, func(t *testing.T) []*tgraph.Graph {
		return generate(t, []int64{1, 2, 3},
			gen.Tiny("t-unit", 40, 4, 6, gen.UnitLife),
			gen.Tiny("t-long", 40, 4, 8, gen.LongLife),
			gen.Tiny("t-mixed", 50, 5, 10, gen.MixedLife),
			gen.Tiny("t-full", 30, 3, 6, gen.FullLife),
			churn(gen.Tiny("t-churn", 40, 4, 12, gen.LongLife)))
	}},
	{"baseline", 4, map[Algo]int{BFS: 4, WCC: 5, PR: 4, SCC: 3}, func(t *testing.T) []*tgraph.Graph {
		return generate(t, []int64{1, 2},
			gen.Tiny("b-unit", 36, 4, 6, gen.UnitLife),
			gen.Tiny("b-long", 36, 4, 8, gen.LongLife),
			gen.Tiny("b-mixed", 44, 5, 10, gen.MixedLife),
			churn(gen.Tiny("b-churn", 36, 4, 10, gen.LongLife)))
	}},
	{"verify", 3, nil, func(t *testing.T) []*tgraph.Graph {
		return generate(t, []int64{9},
			gen.Tiny("verify", 36, 4, 8, gen.UnitLife),
			gen.Tiny("verify", 36, 4, 8, gen.LongLife),
			gen.Tiny("verify", 36, 4, 8, gen.MixedLife))
	}},
	// A path 10 → 11 → 12 whose ids are not its dense indices.
	{"endpoints", 2, nil, func(*testing.T) []*tgraph.Graph {
		b := tgraph.NewBuilder(3, 2)
		life := ival.New(0, 6)
		for v := tgraph.VertexID(10); v < 13; v++ {
			b.AddVertex(v, life)
		}
		for e := tgraph.EdgeID(0); e < 2; e++ {
			b.AddEdge(e, tgraph.VertexID(10+e), tgraph.VertexID(11+e), life)
			b.SetEdgeProp(e, tgraph.PropTravelTime, life, 1)
			b.SetEdgeProp(e, tgraph.PropTravelCost, life, 2)
		}
		return []*tgraph.Graph{b.MustBuild()}
	}},
}

// TestPlatformTable checks the platform table on the tiny and baseline sets.
func TestPlatformTable(t *testing.T) { checkTable(t, "tiny", "baseline") }

// TestAllPlatformsAgree checks the platform table on the verify set.
func TestAllPlatformsAgree(t *testing.T) { checkTable(t, "verify") }

// TestExplicitEndpoints checks the platform table on the 10 → 11 → 12 path,
// whose source and target ids are not dense indices.
func TestExplicitEndpoints(t *testing.T) { checkTable(t, "endpoints") }

// checkTable checks every cell of the platform table — 12 algorithms × 3
// platforms — against the oracles on every graph of the named sets, and
// prints the grid. On BFS, Chlonos must also send no more messages than MSB
// and make as many compute calls (the paper: identical).
func checkTable(t *testing.T, sets ...string) {
	t.Helper()
	algos := append(append([]Algo{}, TIAlgos...), TDAlgos...)
	grid := map[Algo]map[Platform]*Check{}
	for _, al := range algos {
		grid[al] = map[Platform]*Check{}
		for _, pl := range PlatformsFor(al) {
			grid[al][pl] = &Check{Algo: al, Platform: pl}
		}
	}
	for _, set := range graphSets {
		if !slices.Contains(sets, set.name) {
			continue
		}
		for gi, g := range set.graphs(t) {
			for _, al := range algos {
				cfg := Config{Workers: set.workers, BatchSize: 4, PRIterations: 5}
				if b, ok := set.batch[al]; ok {
					cfg.BatchSize = b
				}
				checks, err := Verify(g, cfg, al)
				if err != nil {
					t.Fatalf("%s graph %d: %v", set.name, gi, err)
				}
				at := fmt.Sprintf("%s graph %d", set.name, gi)
				for _, c := range checks {
					cell := grid[al][c.Platform]
					cell.Compared += c.Compared
					for _, m := range c.Mismatch {
						cell.Mismatch = append(cell.Mismatch, at+": "+m)
					}
				}
				if al == BFS {
					m, c := checks[1].End, checks[2].End
					if c.Messages > m.Messages || c.ComputeCalls != m.ComputeCalls {
						chl := grid[BFS][CHL]
						chl.Mismatch = append(chl.Mismatch, fmt.Sprintf("%s: (messages, compute calls) (%d, %d), MSB (%d, %d)",
							at, c.Messages, c.ComputeCalls, m.Messages, m.ComputeCalls))
					}
				}
			}
		}
	}
	var cells []Check
	for _, al := range algos {
		for _, pl := range PlatformsFor(al) {
			cells = append(cells, *grid[al][pl])
		}
	}
	var buf bytes.Buffer
	RenderVerify(&buf, strings.Join(sets, ", ")+" graphs", cells)
	t.Log("\n" + buf.String())
	for _, al := range algos {
		t.Run(string(al), func(t *testing.T) {
			for _, pl := range PlatformsFor(al) {
				t.Run(string(pl), func(t *testing.T) {
					cell := grid[al][pl]
					if cell.Compared == 0 {
						t.Fatal("no answer compared")
					}
					for _, m := range cell.Mismatch {
						t.Error(m)
					}
				})
			}
		})
	}
}

func TestCheckCapsMismatches(t *testing.T) {
	var c Check
	for i := 0; i < 50; i++ {
		c.expect(false, "boom %d", i)
	}
	if len(c.Mismatch) != maxMismatch || c.Passed() || c.Compared != 50 {
		t.Errorf("50 failed comparisons: %d kept, passed %v, %d compared", len(c.Mismatch), c.Passed(), c.Compared)
	}
}
