// Social network analytics over time: PageRank, weakly connected components
// and triangle structure on a Twitter-like temporal graph, read per interval
// from the partitioned vertex states — one ICM run per analytic instead of
// one run per snapshot.
package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"graphite/internal/algorithms"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

func main() {
	g, err := gen.Generate(gen.TwitterLike(0.25), 11)
	if err != nil {
		panic(err)
	}
	fmt.Printf("social graph: %v over %d time-points\n\n", g, g.SnapshotCount())

	// PageRank: one interval-centric run answers "who mattered when".
	pr, err := algorithms.RunPageRank(g, 10, 0)
	if err != nil {
		panic(err)
	}
	probe := []ival.Time{0, g.Horizon() / 2, g.Horizon() - 1}
	for _, t := range probe {
		type vr struct {
			id   tgraph.VertexID
			rank float64
		}
		var ranked []vr
		for i := 0; i < g.NumVertices(); i++ {
			if x, ok := pr.State(i).Get(t); ok {
				ranked = append(ranked, vr{g.VertexAt(i).ID, x.(float64)})
			}
		}
		sort.Slice(ranked, func(a, b int) bool { return ranked[a].rank > ranked[b].rank })
		fmt.Printf("top accounts at t=%d:", t)
		for _, r := range ranked[:3] {
			fmt.Printf("  #%d (%.4f)", r.id, r.rank)
		}
		fmt.Println()
	}

	// Connectivity over time: how fragmented is each snapshot?
	wcc, err := algorithms.RunWCC(g, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("\ncommunities (weak components) over time:")
	for _, t := range probe {
		comps := map[int64]bool{}
		for i := 0; i < g.NumVertices(); i++ {
			if x, ok := wcc.State(i).Get(t); ok {
				comps[x.(int64)] = true
			}
		}
		fmt.Printf("  t=%d: %d components\n", t, len(comps))
	}

	// Triangle structure: cohesion of the network per time-point.
	tc, err := algorithms.RunTC(g, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("\ndirected triangles over time:")
	for _, t := range probe {
		fmt.Printf("  t=%d: %d\n", t, algorithms.TriangleTotal(tc, t))
	}
	cost, _ := json.Marshal(pr.Metrics)
	fmt.Printf("\nPR run cost: %s\n", cost)
}
