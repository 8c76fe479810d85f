// Package ref provides brute-force reference implementations ("oracles")
// used to validate the ICM algorithms and the baseline platforms: classic
// sequential graph algorithms per snapshot for the time-independent family,
// and time-expanded searches for the time-dependent family. They are written
// for obviousness, not speed.
package ref

import (
	"math"

	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// Unreachable mirrors algorithms.Unreachable for oracle outputs.
const Unreachable = int64(math.MaxInt64)

// adjacencyAt materializes the snapshot's out-adjacency as dense indices;
// inactive vertices get nil rows.
func adjacencyAt(g *tgraph.Graph, t ival.Time) [][]int {
	adj := make([][]int, g.NumVertices())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if !e.Lifespan.Contains(t) {
			continue
		}
		u, v := g.IndexOf(e.Src), g.IndexOf(e.Dst)
		adj[u] = append(adj[u], v)
	}
	return adj
}

// BFSLevels returns per-vertex BFS levels in snapshot t from source
// (Unreachable when not reached or inactive).
func BFSLevels(g *tgraph.Graph, t ival.Time, source tgraph.VertexID) []int64 {
	n := g.NumVertices()
	out := make([]int64, n)
	for i := range out {
		out[i] = Unreachable
	}
	s := g.IndexOf(source)
	if s < 0 || !g.VertexAt(s).Lifespan.Contains(t) {
		return out
	}
	adj := adjacencyAt(g, t)
	out[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if out[v] == Unreachable {
				out[v] = out[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return out
}

// WCCLabels returns per-vertex weakly-connected-component labels in
// snapshot t; the label is the minimum vertex id in the component.
// Inactive vertices get Unreachable.
func WCCLabels(g *tgraph.Graph, t ival.Time) []int64 {
	n := g.NumVertices()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.Lifespan.Contains(t) {
			union(g.IndexOf(e.Src), g.IndexOf(e.Dst))
		}
	}
	// Minimum active id per root.
	minID := map[int]int64{}
	for v := 0; v < n; v++ {
		if !g.VertexAt(v).Lifespan.Contains(t) {
			continue
		}
		r := find(v)
		id := int64(g.VertexAt(v).ID)
		if cur, ok := minID[r]; !ok || id < cur {
			minID[r] = id
		}
	}
	out := make([]int64, n)
	for v := 0; v < n; v++ {
		if !g.VertexAt(v).Lifespan.Contains(t) {
			out[v] = Unreachable
			continue
		}
		out[v] = minID[find(v)]
	}
	return out
}

// SCCLabels returns per-vertex strongly-connected-component labels in
// snapshot t via Tarjan's algorithm; the label is the maximum vertex id in
// the component (matching the coloring algorithm's naming). Inactive
// vertices get -1.
func SCCLabels(g *tgraph.Graph, t ival.Time) []int64 {
	n := g.NumVertices()
	adj := adjacencyAt(g, t)
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		active[v] = g.VertexAt(v).Lifespan.Contains(t)
	}

	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var stack []int
	counter := 0
	ncomp := 0

	// Iterative Tarjan to survive deep road-network recursions.
	type frame struct{ v, ei int }
	for root := 0; root < n; root++ {
		if !active[root] || index[root] != unvisited {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if !active[w] {
					continue
				}
				if index[w] == unvisited {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	// Name each component by its maximum vertex id.
	maxID := make([]int64, ncomp)
	for i := range maxID {
		maxID[i] = -1
	}
	for v := 0; v < n; v++ {
		if comp[v] >= 0 {
			if id := int64(g.VertexAt(v).ID); id > maxID[comp[v]] {
				maxID[comp[v]] = id
			}
		}
	}
	out := make([]int64, n)
	for v := 0; v < n; v++ {
		if comp[v] < 0 {
			out[v] = -1
			continue
		}
		out[v] = maxID[comp[v]]
	}
	return out
}

// PageRank runs the plain power iteration on snapshot t with the same
// conventions as the ICM implementation: N is the total vertex count,
// inactive vertices hold no rank, dangling mass is not redistributed.
func PageRank(g *tgraph.Graph, t ival.Time, iterations int, damping float64) []float64 {
	n := g.NumVertices()
	adj := adjacencyAt(g, t)
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		active[v] = g.VertexAt(v).Lifespan.Contains(t)
	}
	rank := make([]float64, n)
	for v := range rank {
		if active[v] {
			rank[v] = 1 / float64(n)
		}
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			if active[v] {
				next[v] = (1 - damping) / float64(n)
			}
		}
		for u := 0; u < n; u++ {
			if !active[u] || len(adj[u]) == 0 {
				continue
			}
			share := damping * rank[u] / float64(len(adj[u]))
			for _, v := range adj[u] {
				next[v] += share
			}
		}
		rank = next
	}
	return rank
}

// Closures returns, per vertex w, the number of (u→v, v→w, w→u) instance
// triples alive in snapshot t that w closes; the graph-wide directed
// 3-cycle count is the sum divided by 3.
func Closures(g *tgraph.Graph, t ival.Time) []int64 {
	n := g.NumVertices()
	adj := adjacencyAt(g, t)
	out := make([]int64, n)
	for u := 0; u < n; u++ {
		for _, v := range adj[u] {
			if v == u {
				continue
			}
			for _, w := range adj[v] {
				if w == u || w == v {
					continue
				}
				for _, x := range adj[w] {
					if x == u {
						out[w]++
					}
				}
			}
		}
	}
	return out
}

// LCCCounts returns, per vertex u, the number of closed wedge instance
// pairs (u→a, a→b alive, with any u→b alive counted per instance) and u's
// out-degree (edge instances) in snapshot t.
func LCCCounts(g *tgraph.Graph, t ival.Time) (counts []int64, degs []int64) {
	n := g.NumVertices()
	adj := adjacencyAt(g, t)
	counts = make([]int64, n)
	degs = make([]int64, n)
	for u := 0; u < n; u++ {
		degs[u] = int64(len(adj[u]))
		for _, a := range adj[u] {
			if a == u {
				continue
			}
			for _, b := range adj[a] {
				if b == u {
					continue
				}
				// One closure per u→b edge instance.
				for _, x := range adj[u] {
					if x == b {
						counts[u]++
					}
				}
			}
		}
	}
	return counts, degs
}
